"""Tests for the hybrid protocols and the generic framework instances."""

import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.generic import (
    GenericNeighborDesignating,
    GenericSelfPruning,
    GenericStatic,
)
from repro.algorithms.hybrid import MaxDegHybrid, MinPriHybrid
from repro.core.priority import IdPriority
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast


@pytest.mark.parametrize("protocol_cls", [MaxDegHybrid, MinPriHybrid])
class TestHybrids:
    def test_covers_random_networks(self, protocol_cls):
        rng = random.Random(71)
        for _ in range(5):
            net = random_connected_network(30, 6.0, rng)
            source = rng.choice(net.topology.nodes())
            outcome = run_broadcast(
                net.topology, protocol_cls(), source=source, rng=rng
            )
            assert outcome.delivered == set(net.topology.nodes())

    def test_designates_at_most_one_neighbor(self, protocol_cls):
        rng = random.Random(72)
        net = random_connected_network(30, 6.0, rng)
        outcome = run_broadcast(
            net.topology, protocol_cls(), source=0, rng=rng
        )
        for chosen in outcome.designations.values():
            assert len(chosen) <= 1

    def test_designated_node_must_contribute(self, protocol_cls):
        # Star: no 2-hop neighbors anywhere, so nobody is designated.
        outcome = run_broadcast(Topology.star(5), protocol_cls(), source=0)
        for chosen in outcome.designations.values():
            assert chosen == frozenset()


class TestHybridSelectionRules:
    def test_maxdeg_prefers_high_degree(self):
        # Source 1; neighbors 2 (degree 2) and 3 (degree 4); both cover
        # 2-hop neighbors, MaxDeg must pick 3, MinPri picks 2.
        graph = Topology(
            edges=[
                (1, 2), (1, 3),
                (2, 4),
                (3, 5), (3, 6), (3, 7),
            ]
        )
        maxdeg = run_broadcast(graph, MaxDegHybrid(), source=1)
        minpri = run_broadcast(graph, MinPriHybrid(), source=1)
        assert maxdeg.designations[1] == frozenset({3})
        assert minpri.designations[1] == frozenset({2})
        assert maxdeg.delivered == set(graph.nodes())
        assert minpri.delivered == set(graph.nodes())


class TestGenericSelfPruning:
    @pytest.mark.parametrize(
        "timing",
        [
            Timing.FIRST_RECEIPT,
            Timing.FIRST_RECEIPT_BACKOFF,
            Timing.FIRST_RECEIPT_BACKOFF_DEGREE,
        ],
    )
    @pytest.mark.parametrize("hops", [2, 3, None])
    def test_covers_at_every_timing_and_radius(self, timing, hops):
        rng = random.Random(73)
        net = random_connected_network(25, 6.0, rng)
        protocol = GenericSelfPruning(timing, hops=hops)
        outcome = run_broadcast(net.topology, protocol, source=0, rng=rng)
        assert outcome.delivered == set(net.topology.nodes())

    def test_strong_prunes_no_more_than_generic(self):
        rng = random.Random(74)
        net = random_connected_network(30, 6.0, rng)
        env = SimulationEnvironment(net.topology, IdPriority())

        def forward_count(strong: bool) -> int:
            protocol = GenericSelfPruning(
                Timing.FIRST_RECEIPT, hops=2, strong=strong
            )
            protocol.prepare(env)
            return run_broadcast(
                env.graph, protocol, 0, rng=random.Random(9), env=env
            ).forward_count

        assert forward_count(strong=False) <= forward_count(strong=True)

    def test_name_encodes_configuration(self):
        protocol = GenericSelfPruning(
            Timing.FIRST_RECEIPT_BACKOFF, hops=None, strong=True
        )
        assert protocol.name == "generic-sp-frb-global-strong"


class TestGenericStaticVsDynamic:
    def test_dynamic_not_worse_on_aggregate(self):
        """Figure 10's ordering: FR <= Static on aggregate."""
        rng = random.Random(75)
        static_total, dynamic_total = 0, 0
        for trial in range(10):
            net = random_connected_network(30, 6.0, rng)
            env = SimulationEnvironment(net.topology, IdPriority())
            source = trial % 30
            static = GenericStatic(hops=2)
            static.prepare(env)
            static_total += run_broadcast(
                env.graph, static, source, rng=random.Random(trial), env=env
            ).forward_count
            dynamic = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
            dynamic.prepare(env)
            dynamic_total += run_broadcast(
                env.graph, dynamic, source, rng=random.Random(trial), env=env
            ).forward_count
        assert dynamic_total <= static_total


class TestGenericNeighborDesignating:
    def test_covers_random_networks(self):
        rng = random.Random(76)
        for _ in range(5):
            net = random_connected_network(30, 6.0, rng)
            outcome = run_broadcast(
                net.topology, GenericNeighborDesignating(), source=0, rng=rng
            )
            assert outcome.delivered == set(net.topology.nodes())

    def test_non_designated_nodes_stay_silent(self):
        rng = random.Random(77)
        net = random_connected_network(30, 6.0, rng)
        outcome = run_broadcast(
            net.topology, GenericNeighborDesignating(), source=0, rng=rng
        )
        designated = set()
        for chosen in outcome.designations.values():
            designated |= chosen
        assert outcome.forward_nodes <= designated | {0}


class TestRelaxedDesignation:
    """The Section 4.2 relaxed rule, including its re-evaluation subtlety."""

    def test_relaxed_hybrid_covers_random_networks(self):
        from repro.algorithms.hybrid import RelaxedMaxDegHybrid

        rng = random.Random(404)
        for _ in range(10):
            net = random_connected_network(40, 6.0, rng)
            source = rng.choice(net.topology.nodes())
            outcome = run_broadcast(
                net.topology, RelaxedMaxDegHybrid(), source=source, rng=rng
            )
            assert outcome.delivered == set(net.topology.nodes())

    def test_relaxed_beats_strict_on_aggregate(self):
        """Skipping safe designated forwards shrinks the forward set."""
        from repro.algorithms.hybrid import RelaxedMaxDegHybrid

        rng = random.Random(405)
        strict_total, relaxed_total = 0, 0
        for trial in range(12):
            net = random_connected_network(40, 6.0, rng)
            env = SimulationEnvironment(net.topology, IdPriority())
            source = trial % 40
            strict = MaxDegHybrid()
            strict.prepare(env)
            strict_total += run_broadcast(
                env.graph, strict, source, rng=random.Random(trial), env=env
            ).forward_count
            relaxed = RelaxedMaxDegHybrid()
            relaxed.prepare(env)
            relaxed_total += run_broadcast(
                env.graph, relaxed, source, rng=random.Random(trial), env=env
            ).forward_count
        assert relaxed_total < strict_total

    def test_reevaluation_happens_at_raised_priority(self):
        """Regression for the cyclic-dependency coverage hole.

        Without re-evaluating late-designated nodes at their raised
        S = 1.5 priority, the relaxed rule loses coverage on sparse
        networks (nodes prune at the old threshold while others already
        rely on their new rank).  The seeds below include deployments
        that exposed exactly that hole.
        """
        from repro.algorithms.hybrid import RelaxedMaxDegHybrid

        rng = random.Random(404)
        for trial in range(25):
            net = random_connected_network(60, 6.0, rng)
            env = SimulationEnvironment(net.topology, IdPriority())
            source = rng.choice(net.topology.nodes())
            protocol = RelaxedMaxDegHybrid()
            protocol.prepare(env)
            outcome = run_broadcast(
                env.graph, protocol, source, rng=random.Random(trial), env=env
            )
            assert outcome.delivered == set(net.topology.nodes()), trial
