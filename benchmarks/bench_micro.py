"""Micro-benchmarks for the core primitives.

These track the hot paths behind every experiment: coverage-condition
checks (the O(D^3) generic and O(D^2) strong variants — the complexity
gap the paper discusses in Section 6), k-hop view extraction, unit-disk
construction, and one full broadcast.
"""

import random

import pytest

from repro.algorithms.generic import GenericSelfPruning
from repro.core.coverage import coverage_condition, strong_coverage_condition
from repro.core.priority import IdPriority
from repro.core.views import global_view
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast


@pytest.fixture(scope="module")
def dense_network():
    return random_connected_network(100, 18.0, random.Random(micro_seed()))


def micro_seed() -> int:
    return 4242


def test_unit_disk_construction(benchmark):
    rng = random.Random(micro_seed())
    benchmark(lambda: random_connected_network(100, 6.0, rng))


def test_k_hop_view_extraction(benchmark, dense_network):
    graph = dense_network.topology
    nodes = graph.nodes()
    benchmark(lambda: [graph.k_hop_view_graph(v, 2) for v in nodes[:10]])


def test_generic_coverage_condition(benchmark, dense_network):
    graph = dense_network.topology
    view = global_view(graph, IdPriority())
    nodes = graph.nodes()[:20]
    benchmark(lambda: [coverage_condition(view, v) for v in nodes])


def test_strong_coverage_condition(benchmark, dense_network):
    graph = dense_network.topology
    view = global_view(graph, IdPriority())
    nodes = graph.nodes()[:20]
    benchmark(lambda: [strong_coverage_condition(view, v) for v in nodes])


def test_full_broadcast_generic_fr(benchmark, dense_network):
    env = SimulationEnvironment(dense_network.topology, IdPriority())
    protocol = GenericSelfPruning()
    protocol.prepare(env)

    def run():
        return run_broadcast(
            env.graph, protocol, 0, rng=random.Random(1), env=env
        )

    outcome = benchmark(run)
    assert outcome.delivered == set(dense_network.topology.nodes())
