"""Golden regression: exact outcomes for pinned seeds.

These tests freeze the byte-for-byte behaviour of the deterministic
pipeline — network generation, tie-breaking, protocol decisions — so an
accidental semantic change (a different iteration order, an off-by-one
in a view) shows up as a diff here even when every invariant still
holds.  If a change is *intentional*, regenerate the constants with the
snippet in each test's docstring.
"""

import random

import pytest

from repro.algorithms.registry import create
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast

SEED = 0xD1CE
N = 30
DEGREE = 6.0


@pytest.fixture(scope="module")
def deployment():
    return random_connected_network(N, DEGREE, random.Random(SEED))


def _outcome(deployment, name: str):
    env = SimulationEnvironment(deployment.topology)
    protocol = create(name)
    protocol.prepare(env)
    return run_broadcast(
        deployment.topology, protocol, 0, rng=random.Random(SEED), env=env
    )


class TestGoldenNetwork:
    def test_network_shape_is_stable(self, deployment):
        """Regenerate: print(net.link_count, sorted(net.topology.edges())[:3])."""
        assert deployment.link_count == 90
        assert deployment.topology.is_connected()
        assert sorted(deployment.topology.edges())[:3] == [
            (0, 4), (0, 7), (0, 11)
        ]


class TestGoldenForwardSets:
    """Regenerate: print(name, sorted(outcome.forward_nodes))."""

    def test_generic_fr(self, deployment):
        outcome = _outcome(deployment, "generic-fr")
        assert outcome.delivered == set(range(N))
        assert outcome.forward_nodes == set(GOLDEN["generic-fr"])

    def test_generic_static(self, deployment):
        outcome = _outcome(deployment, "generic-static")
        assert outcome.forward_nodes == set(GOLDEN["generic-static"])

    def test_mpr(self, deployment):
        outcome = _outcome(deployment, "mpr")
        assert outcome.forward_nodes == set(GOLDEN["mpr"])

    def test_dp(self, deployment):
        outcome = _outcome(deployment, "dp")
        assert outcome.forward_nodes == set(GOLDEN["dp"])

    def test_wu_li(self, deployment):
        outcome = _outcome(deployment, "wu-li")
        assert outcome.forward_nodes == set(GOLDEN["wu-li"])


#: Pinned forward sets; regenerated by running this module's _outcome
#: helper and printing the sorted sets (see class docstrings).  With id
#: priorities on this sample, Wu & Li and the generic conditions settle
#: on the same CDS, and DP's greedy designations coincide with the MPR
#: sets — the goldens pin those coincidences too.
GOLDEN = {
    "generic-fr": [0, 3, 14, 15, 22, 23, 25, 26, 27, 28, 29],
    "generic-static": [0, 3, 14, 15, 22, 23, 25, 26, 27, 28, 29],
    "mpr": [0, 1, 3, 7, 8, 10, 15, 25, 27, 28],
    "dp": [0, 1, 3, 7, 8, 10, 15, 25, 27, 28],
    "wu-li": [0, 3, 14, 15, 22, 23, 25, 26, 27, 28, 29],
}
