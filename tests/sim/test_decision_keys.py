"""Decision keys: cross-message reuse must be exact.

The broadcast service reuses a node's forward/designate decision across
messages under the protocol's :meth:`~repro.algorithms.base.
BroadcastProtocol.decision_key`.  A key that drops something the
decision reads would replay a stale verdict, so every run here streams
Zipf traffic with ``reuse_decisions=True`` and again with
``reuse_decisions=False`` and demands byte-identical ``events_to_jsonl``
streams: 50 seeds, every coverage backend, self-pruning at every timing,
radius and condition, plus the neighbor-designating, dominant-pruning,
flooding and hybrid protocols on the default key.

The compiled-view kernel behind self-pruning's bitset decides is also
checked directly against the per-``View`` kernels, over random broadcast
states that include the deciding node itself being visited or
designated, under id and degree priorities.
"""

import random

import pytest

from repro.algorithms.base import NodeContext, Timing
from repro.algorithms.dominant_pruning import DominantPruning
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import (
    GenericNeighborDesignating,
    GenericSelfPruning,
)
from repro.algorithms.gossip import Gossip
from repro.algorithms.hybrid import MaxDegHybrid
from repro.core.coverage import coverage_condition, strong_coverage_condition
from repro.core.priority import DegreePriority, IdPriority
from repro.core.views import MaskView
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment
from repro.sim.events import events_to_jsonl
from repro.sim.service import ServiceEngine
from repro.sim.traffic import ZipfTraffic

SEEDS = range(50)

BACKENDS = ("sets", "bitset", "numpy")

_TIMINGS = (
    Timing.FIRST_RECEIPT,
    Timing.FIRST_RECEIPT_BACKOFF,
    Timing.FIRST_RECEIPT_BACKOFF_DEGREE,
    Timing.STATIC,
)

CASES = {
    **{
        GenericSelfPruning(timing, hops, strong).name: (
            lambda timing=timing, hops=hops, strong=strong: GenericSelfPruning(
                timing, hops=hops, strong=strong
            )
        )
        for timing in _TIMINGS
        for hops in (1, 2, None)
        for strong in (False, True)
    },
    "generic-nd": GenericNeighborDesignating,
    "dominant-pruning": DominantPruning,
    "flooding": Flooding,
    "hybrid-maxdeg": MaxDegHybrid,
}


def _use_backend(monkeypatch, backend: str) -> None:
    if backend == "numpy":
        pytest.importorskip("numpy")
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)


def _stream(seed: int, factory, reuse: bool):
    """One Zipf stream on a fresh deployment: (events, reuse count)."""
    rng = random.Random(seed)
    graph = random_connected_network(rng.randint(8, 12), 5.0, rng).topology
    env = SimulationEnvironment(graph)
    protocol = factory()
    protocol.prepare(env)
    traffic = ZipfTraffic(rate=0.5, count=4, exponent=1.5, seed=seed)
    outcome = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(seed ^ 0xBEEF),
        reuse_decisions=reuse,
        collect_trace=True,
    ).run()
    return outcome.events, outcome.forward_set_reuses


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_reuse_is_byte_identical(case, backend, monkeypatch):
    _use_backend(monkeypatch, backend)
    factory = CASES[case]
    reuses = 0
    for seed in SEEDS:
        reused, count = _stream(seed, factory, True)
        fresh, none = _stream(seed, factory, False)
        assert none == 0
        # Equal typed events render equal JSONL; the render only runs to
        # show the first differing line when they are not.
        if reused != fresh:
            assert events_to_jsonl(reused) == events_to_jsonl(fresh), seed
        reuses += count
    # The comparison only means something if the cache actually fired.
    assert reuses > 0


def test_gossip_opts_out_of_reuse():
    _jsonl, reuses = _stream(3, lambda: Gossip(0.7), True)
    assert reuses == 0


def test_projected_key_reuse_is_pinned(monkeypatch):
    """A fixed fixture's reuse count: a later key change that silently
    loses reuse (say, by keying on a field the decision never reads)
    fails here rather than only in a throughput record."""
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "bitset")
    rng = random.Random(2024)
    graph = random_connected_network(60, 10.0, rng).topology
    env = SimulationEnvironment(graph)
    protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
    traffic = ZipfTraffic(rate=1.0, count=20, exponent=1.2, seed=2024)
    outcome = ServiceEngine(
        env, protocol, traffic, rng=random.Random(2024)
    ).run()
    assert outcome.forward_set_reuses == PINNED_REUSES


#: ``forward_set_reuses`` of :func:`test_projected_key_reuse_is_pinned`.
PINNED_REUSES = 782


# ----------------------------------------------------------------------
# The compiled-view kernel against the per-View kernels


def _context(env, node, hops, visited, designated) -> NodeContext:
    return NodeContext(
        node=node,
        is_source=False,
        time=0.0,
        env=env,
        hops=hops,
        known_visited=frozenset(visited),
        known_designated=frozenset(designated),
        designators=frozenset(),
        first_packet=None,
        rng=random.Random(0),
    )


@pytest.mark.parametrize("scheme", [IdPriority, DegreePriority])
@pytest.mark.parametrize("hops", [1, 2, None])
@pytest.mark.parametrize("seed", range(10))
def test_mask_view_verdicts_match_views(seed, hops, scheme, monkeypatch):
    rng = random.Random(seed)
    graph = random_connected_network(rng.randint(10, 30), 6.0, rng).topology
    env = SimulationEnvironment(graph, scheme())
    nodes = graph.nodes()
    for node in nodes:
        visited = set(rng.sample(nodes, rng.randint(0, len(nodes) // 3)))
        designated = set(rng.sample(nodes, rng.randint(0, len(nodes) // 3)))
        if rng.random() < 0.3:
            (visited if rng.random() < 0.5 else designated).add(node)
        ctx = _context(env, node, hops, visited, designated)
        compiled = ctx.mask_view()
        assert isinstance(compiled, MaskView)
        for condition in (coverage_condition, strong_coverage_condition):
            expected = set()
            for backend in ("sets", "bitset"):
                monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
                expected.add(condition(ctx.view(), node))
            assert len(expected) == 1
            assert {condition(compiled, node)} == expected, (
                f"{condition.__name__} at node {node}"
            )
            assert condition(ctx.mask_view(static=True), node) == condition(
                ctx.static_view(), node
            )


def test_compiled_views_are_dropped_with_the_epoch():
    rng = random.Random(5)
    graph = random_connected_network(20, 6.0, rng).topology
    env = SimulationEnvironment(graph)
    node = graph.nodes()[0]
    compiled = env.compiled_view(node, 2)
    assert env.compiled_view(node, 2) is compiled
    far = next(
        other
        for other in graph.nodes()
        if other != node and not graph.has_edge(node, other)
    )
    graph.add_edge(node, far)
    rebuilt = env.compiled_view(node, 2)
    assert rebuilt is not compiled
    assert rebuilt.neighbor_mask & rebuilt.index.bit(far)
