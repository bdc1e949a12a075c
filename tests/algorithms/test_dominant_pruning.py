"""Tests for DP, TDP, and PDP."""

import random

import pytest

from repro.algorithms.ahbp import AHBP
from repro.algorithms.dominant_pruning import (
    DominantPruning,
    PartialDominantPruning,
    TotalDominantPruning,
)
from repro.core.priority import DegreePriority
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast


@pytest.mark.parametrize(
    "protocol_cls",
    [DominantPruning, TotalDominantPruning, PartialDominantPruning, AHBP],
)
class TestFamilyInvariants:
    def test_covers_random_networks(self, protocol_cls):
        rng = random.Random(61)
        for _ in range(5):
            net = random_connected_network(30, 6.0, rng)
            source = rng.choice(net.topology.nodes())
            outcome = run_broadcast(
                net.topology,
                protocol_cls(),
                source=source,
                scheme=DegreePriority(),
                rng=rng,
            )
            assert outcome.delivered == set(net.topology.nodes())

    def test_only_source_and_designated_forward(self, protocol_cls):
        rng = random.Random(62)
        net = random_connected_network(30, 6.0, rng)
        outcome = run_broadcast(
            net.topology, protocol_cls(), source=0, rng=rng
        )
        designated = set()
        for chooser, chosen in outcome.designations.items():
            designated |= chosen
        assert outcome.forward_nodes <= designated | {0}

    def test_star_needs_one_transmission(self, protocol_cls):
        outcome = run_broadcast(Topology.star(6), protocol_cls(), source=0)
        assert outcome.forward_nodes == {0}
        assert outcome.delivered == set(range(6))


class TestRelativeEfficiency:
    def _counts(self, protocol_cls, trials=10):
        rng = random.Random(63)
        total = 0
        for trial in range(trials):
            net = random_connected_network(40, 6.0, rng)
            env = SimulationEnvironment(net.topology, DegreePriority())
            protocol = protocol_cls()
            protocol.prepare(env)
            source = trial % 40
            outcome = run_broadcast(
                env.graph, protocol, source, rng=random.Random(trial), env=env
            )
            assert outcome.delivered == set(net.topology.nodes())
            total += outcome.forward_count
        return total

    def test_pdp_not_worse_than_dp(self):
        """Figure 15's ordering: PDP <= DP on aggregate."""
        assert self._counts(PartialDominantPruning) <= self._counts(
            DominantPruning
        )

    def test_tdp_not_worse_than_dp(self):
        assert self._counts(TotalDominantPruning) <= self._counts(
            DominantPruning
        )

    def test_ahbp_not_worse_than_dp(self):
        """Discounting co-designated BRGs' coverage can only help."""
        assert self._counts(AHBP) <= self._counts(DominantPruning)


class TestTargetReduction:
    def test_tdp_uses_piggybacked_two_hop_set(self):
        # Chain with branches: after u=1 forwards, v=2 need not cover
        # anything inside N2(1).
        graph = Topology(
            edges=[(1, 2), (2, 3), (3, 4), (1, 5), (5, 6)]
        )
        outcome = run_broadcast(
            graph, TotalDominantPruning(), source=1, rng=random.Random(2)
        )
        assert outcome.delivered == set(graph.nodes())

    def test_pdp_reduces_via_common_neighbors(self):
        # Diamond where u and v share neighbor w: N(w) drops out of Y.
        graph = Topology(
            edges=[(1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (4, 5)]
        )
        outcome = run_broadcast(
            graph, PartialDominantPruning(), source=1, rng=random.Random(2)
        )
        assert outcome.delivered == set(graph.nodes())

    def test_dp_designates_to_cover_two_hop(self):
        graph = Topology.path(5)
        outcome = run_broadcast(graph, DominantPruning(), source=0)
        # Each forwarder designates the next node down the path.
        assert outcome.designations[0] == frozenset({1})
        assert outcome.designations[1] == frozenset({2})
        assert outcome.delivered == set(range(5))
