"""Differential tests: round executor versus discrete-event engine."""

import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.registry import REGISTRY, create
from repro.core.priority import scheme_by_name
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.rounds import run_round_broadcast

ROUND_COMPATIBLE = [
    name
    for name, info in REGISTRY.items()
    if info.factory().timing in (Timing.STATIC, Timing.FIRST_RECEIPT)
]


class TestValidation:
    def test_rejects_backoff_protocols(self):
        env = SimulationEnvironment(Topology.path(3))
        protocol = create("sba")
        protocol.prepare(env)
        with pytest.raises(ValueError):
            run_round_broadcast(env, protocol, 0)

    def test_rejects_unknown_source(self):
        env = SimulationEnvironment(Topology.path(3))
        protocol = create("flooding")
        protocol.prepare(env)
        with pytest.raises(KeyError):
            run_round_broadcast(env, protocol, 99)


class TestBasics:
    def test_flooding_waves(self):
        env = SimulationEnvironment(Topology.path(4))
        protocol = create("flooding")
        protocol.prepare(env)
        outcome = run_round_broadcast(env, protocol, 0)
        assert outcome.forward_nodes == {0, 1, 2, 3}
        assert outcome.delivered == {0, 1, 2, 3}
        # Waves: 0 transmits; then 1; then 2; then 3 — four rounds.
        assert outcome.completion_time == 4.0

    def test_coverage_on_random_networks(self):
        rng = random.Random(71)
        net = random_connected_network(30, 6.0, rng)
        env = SimulationEnvironment(net.topology)
        for name in ROUND_COMPATIBLE:
            protocol = create(name)
            protocol.prepare(env)
            outcome = run_round_broadcast(
                env, protocol, 0, rng=random.Random(1)
            )
            assert outcome.delivered == set(net.topology.nodes()), name


@pytest.mark.parametrize("protocol_name", ROUND_COMPATIBLE)
@pytest.mark.parametrize("scheme_name", ["id", "degree"])
def test_round_executor_matches_des(protocol_name, scheme_name):
    """Unit-delay DES and the wave executor agree on everything visible."""
    rng = random.Random(73)
    for trial in range(4):
        net = random_connected_network(25, 6.0, rng)
        env = SimulationEnvironment(
            net.topology, scheme_by_name(scheme_name)
        )
        source = rng.choice(net.topology.nodes())

        des_protocol = create(protocol_name)
        des_protocol.prepare(env)
        des = run_broadcast(
            net.topology, des_protocol, source,
            rng=random.Random(trial), env=env,
        )

        wave_protocol = create(protocol_name)
        wave_protocol.prepare(env)
        waves = run_round_broadcast(
            env, wave_protocol, source, rng=random.Random(trial)
        )

        assert waves.forward_nodes == des.forward_nodes, (
            protocol_name, trial
        )
        assert waves.delivered == des.delivered
        assert waves.receipt_counts == des.receipt_counts
