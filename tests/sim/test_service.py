"""The broadcast service: frozen-golden identity, dedup, and drop properties.

Property suites back the service's contracts:

* a one-message :class:`~repro.sim.traffic.SingleShot` run reproduces
  the frozen records of the retired single-message engine
  (``legacy_engine_golden.jsonl``: forward set, completion time, byte
  count and the sha256 of the typed event stream) on every coverage
  backend (sets, bitset, numpy when installed) — over a 50-seed matrix
  and over every registered protocol plus gossip;
* every registered (deterministic) protocol delivers to all nodes with
  a forward set that, with the source, is a connected dominating set
  (the paper's Theorem 1);
* under concurrent messages, per-message delivery stays duplicate-free:
  each node counts at most one first receipt and transmits each message
  at most once;
* a message dropped at a node (TTL expiry or queue backpressure) is
  never transmitted by that node afterwards, and no intact copy is
  ever delivered after the message's expiry time.

Plus focused unit tests for backpressure, horizons, decision reuse,
and the run-once guard.
"""

import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.graph.cds import is_cds
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment
from repro.sim.events import Deliver, Drop, Transmit
from repro.sim.service import ServiceEngine, service_seed
from repro.sim.traffic import (
    Message,
    PoissonTraffic,
    ScriptedTraffic,
    SingleShot,
    ZipfTraffic,
)

from .legacy_golden import (
    REGISTRY_PROTOCOLS,
    REGISTRY_SEEDS,
    SERVICE_PROTOCOLS,
    SERVICE_SEEDS,
    divergence,
    registry_case,
    run_case,
    service_case,
)

SEEDS = SERVICE_SEEDS

BACKENDS = ("sets", "bitset", "numpy")

PROTOCOLS = tuple(SERVICE_PROTOCOLS.values())


def _use_backend(monkeypatch, backend: str) -> None:
    if backend == "numpy":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)


def _deployment(seed: int):
    rng = random.Random(seed)
    net = random_connected_network(rng.randint(12, 30), 6.0, rng)
    return net.topology


def _prepared(graph, factory):
    env = SimulationEnvironment(graph)
    protocol = factory()
    protocol.prepare(env)
    return env, protocol


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_single_message_service_is_byte_identical_to_legacy(
    seed, backend, monkeypatch
):
    _use_backend(monkeypatch, backend)
    case = service_case(seed)
    found = divergence(case, run_case(case))
    assert found is None, found


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(REGISTRY_PROTOCOLS))
def test_registered_protocols_match_legacy_goldens(name, backend, monkeypatch):
    _use_backend(monkeypatch, backend)
    for seed in REGISTRY_SEEDS:
        case = registry_case(name, seed)
        outcome = run_case(case)
        found = divergence(case, outcome)
        assert found is None, found
        if name == "gossip":
            continue  # probabilistic: no coverage guarantee
        # Theorem 1: full delivery over a CDS of forward nodes + source.
        assert outcome.delivered == set(case.graph.nodes()), case.case_id
        assert is_cds(
            case.graph, outcome.forward_nodes | {case.source}
        ), case.case_id


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_messages_deliver_without_duplicates(seed):
    graph = _deployment(seed)
    env, protocol = _prepared(
        graph, PROTOCOLS[seed % len(PROTOCOLS)]
    )
    traffic = ZipfTraffic(
        rate=3.0, count=8, exponent=1.0, seed=seed, size_units=4
    )
    outcome = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(seed),
        collect_trace=True,
    ).run()

    assert len(outcome.messages) == 8
    transmits = {}
    for event in outcome.events:
        if isinstance(event, Transmit):
            key = (event.message_id, event.node)
            transmits[key] = transmits.get(key, 0) + 1
    # One transmission per (message, node) — the dedup table holds even
    # while several broadcasts are in flight on the shared scheduler.
    assert all(count == 1 for count in transmits.values())
    for m in outcome.messages:
        mid = m.message.message_id
        assert m.forward_nodes == {
            node for (emid, node) in transmits if emid == mid
        }
        # Receipt counts are bounded by degree: at most one copy per
        # transmitting neighbor per message.
        for node, count in m.receipt_counts.items():
            assert 1 <= count <= graph.degree(node)
        assert m.message.source in m.delivered
        if m.delivered_all:
            assert m.delivered == set(graph.nodes())
            assert m.delivery_latency is not None
            assert m.delivery_latency >= 0


@pytest.mark.parametrize("seed", SEEDS)
def test_dropped_messages_stay_dropped(seed):
    graph = _deployment(seed)
    env, protocol = _prepared(
        graph, PROTOCOLS[seed % len(PROTOCOLS)]
    )
    # A harsh regime: short TTLs, tiny queues, big payloads — plenty of
    # queue_full and ttl_expired drops to exercise.
    traffic = PoissonTraffic(
        rate=8.0, count=12, seed=seed, size_units=30, ttl=2.5
    )
    outcome = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(seed),
        queue_capacity=1,
        collect_trace=True,
    ).run()

    expiry = {
        m.message.message_id: m.message.expires_at for m in outcome.messages
    }
    drops_at = {}
    for event in outcome.events:
        if isinstance(event, Drop) and event.reason in (
            "ttl_expired",
            "queue_full",
        ):
            key = (event.message_id, event.node)
            drops_at.setdefault(key, event.time)
        if isinstance(event, Deliver):
            # No intact copy is ever delivered past its expiry.
            assert event.time <= expiry[event.message_id]
    for event in outcome.events:
        if isinstance(event, Transmit):
            dropped = drops_at.get((event.message_id, event.node))
            # A node that dropped a message never transmits it later.
            assert dropped is None or event.time < dropped
    total_drops = sum(
        m.drops.get("ttl_expired", 0) + m.drops.get("queue_full", 0)
        for m in outcome.messages
    )
    assert total_drops == outcome.messages_dropped


class TestBackpressure:
    def test_saturating_burst_fills_queue_and_drops(self):
        graph = _deployment(1)
        env, protocol = _prepared(graph, Flooding)
        source = graph.nodes()[0]
        script = [
            Message(message_id=i, source=source, injected_at=0.0, size_units=50)
            for i in range(12)
        ]
        outcome = ServiceEngine(
            env,
            protocol,
            ScriptedTraffic(script),
            rng=random.Random(0),
            queue_capacity=2,
        ).run()
        assert outcome.queue_depth_max == 2
        drops = sum(
            m.drops.get("queue_full", 0) for m in outcome.messages
        )
        assert drops > 0
        assert outcome.messages_dropped >= drops

    def test_unbounded_queue_never_drops_for_backpressure(self):
        graph = _deployment(2)
        env, protocol = _prepared(graph, Flooding)
        source = graph.nodes()[0]
        script = [
            Message(message_id=i, source=source, injected_at=0.0, size_units=50)
            for i in range(12)
        ]
        outcome = ServiceEngine(
            env,
            protocol,
            ScriptedTraffic(script),
            rng=random.Random(0),
            queue_capacity=None,
        ).run()
        assert all(
            "queue_full" not in m.drops for m in outcome.messages
        )
        assert outcome.queue_depth_max > 0


class TestDecisionReuse:
    def test_repeat_messages_hit_the_cache(self):
        graph = _deployment(3)
        env, protocol = _prepared(
            graph, lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        )
        traffic = ZipfTraffic(rate=0.05, count=10, exponent=4.0, seed=3)
        outcome = ServiceEngine(
            env, protocol, traffic, rng=random.Random(3)
        ).run()
        # Widely spaced repeats from the same chatty source replay the
        # same knowledge states, so the cache must fire.
        assert outcome.forward_set_reuses > 0


class TestRunSemantics:
    def test_engine_runs_only_once(self):
        graph = _deployment(5)
        env, protocol = _prepared(graph, Flooding)
        engine = ServiceEngine(
            env, protocol, SingleShot(graph.nodes()[0])
        )
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()

    def test_horizon_truncates_the_run(self):
        graph = _deployment(6)
        env, protocol = _prepared(graph, Flooding)
        traffic = PoissonTraffic(rate=1.0, count=30, seed=6)
        outcome = ServiceEngine(
            env, protocol, traffic, rng=random.Random(6)
        ).run(horizon=3.0)
        assert outcome.completion_time <= 3.0
        assert outcome.delivered_count < 30

    def test_default_rng_derives_from_service_seed(self):
        assert service_seed(0) != service_seed(1)

    def test_single_outcome_requires_one_message(self):
        graph = _deployment(7)
        env, protocol = _prepared(graph, Flooding)
        outcome = ServiceEngine(
            env,
            protocol,
            PoissonTraffic(rate=1.0, count=2, seed=7),
            rng=random.Random(7),
        ).run()
        with pytest.raises(ValueError):
            outcome.single_outcome()
