"""Scale benchmark: the spatial-hash builder and the numpy word table.

Measures the two kernels that broke the 100-node ceiling, on random-grid
deployments (``random_grid_network``, occupancy 0.7, radius 1.5) at
n ≈ 1k / 10k / 100k:

* **construction** — unit-disk graph build throughput (nodes/sec) through
  the cell grid at every size, against the pairwise reference where the
  O(n²) scan is still feasible (1k).  At 100k the pairwise scan would
  visit ~5e9 candidate pairs; the record marks it infeasible instead of
  timing it.
* **calibration** — ``range_for_link_count`` at nd/2 links through the
  grid's doubling search at 1k and 10k (10k is where the old
  sort-all-pairs calibration allocated ~50M distances), with a radius
  byte-identity gate against the pairwise reference at 1k.
* **full broadcast** — ``GenericStatic`` (global view) prepare + run
  under the bitset and numpy coverage backends at 1k, with the sets
  reference included in the identity gate; numpy alone is also timed at
  10k to record forward-set throughput at scale.

Byte-identity gates use :func:`tests.divergence.first_divergence` so a
failure names the first diverging edge / node instead of only reporting
that *something* diverged.

Run directly for the full record (written to ``BENCH_scale.json`` at the
repo root so the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_scale.py
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke

``--smoke`` (the CI ``scale-kernel`` job) runs only the 1k fixture: the
construction identity gate, the three-backend forward-set identity gate,
and the "numpy does not lose to bitset" floor.  Full mode additionally
requires the 100k grid build to complete and numpy to beat bitset
outright.  Exits non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.algorithms.generic import GenericStatic
from repro.core.priority import IdPriority
from repro.graph.generators import random_grid_network
from repro.graph.geometry import grid_points
from repro.graph.unit_disk import (
    build_unit_disk_graph,
    range_for_link_count,
)
from repro.sim.engine import SimulationEnvironment, run_broadcast
from tests.divergence import first_divergence

#: Default output location: repo root, next to the other BENCH records.
DEFAULT_OUT = os.path.join(ROOT, "BENCH_scale.json")

#: Random-grid fixtures (occupancy 0.7 of a side x side lattice): the side
#: lengths put the expected node count at ~1k / ~10k / ~100k.
FIXTURES = {
    "1k": {"side": 38, "occupancy": 0.7, "seed": 11},
    "10k": {"side": 120, "occupancy": 0.7, "seed": 12},
    "100k": {"side": 378, "occupancy": 0.7, "seed": 13},
}
RADIUS = 1.5
#: Pairwise construction is only timed where the O(n²) scan stays cheap.
PAIRWISE_FEASIBLE = {"1k"}
#: Grid calibration sizes (10k is where sort-all-pairs used to blow up).
CALIBRATION_SIZES = ("1k", "10k")
#: Broadcast A/B size, and the numpy-only scale point.
BROADCAST_AB_SIZE = "1k"
BROADCAST_NUMPY_SIZE = "10k"


def _positions(name: str) -> Dict[int, object]:
    spec = FIXTURES[name]
    rng = random.Random(spec["seed"])
    lattice = grid_points(spec["side"], spec["side"])
    positions = {}
    node = 0
    for point in lattice.values():
        if rng.random() < spec["occupancy"]:
            positions[node] = point
            node += 1
    return positions


def _timed(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall-clock and the (stable) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _edge_payload(network) -> List[List[int]]:
    return [list(edge) for edge in sorted(network.topology.edges())]


def _broadcast(graph, backend: str) -> Tuple[float, dict]:
    """GenericStatic global-view prepare + one broadcast under ``backend``."""
    os.environ["REPRO_COVERAGE_BACKEND"] = backend
    env = SimulationEnvironment(graph, IdPriority())
    protocol = GenericStatic(hops=None)
    start = time.perf_counter()
    protocol.prepare(env)
    outcome = run_broadcast(graph, protocol, 0, rng=random.Random(1), env=env)
    elapsed = time.perf_counter() - start
    payload = {
        "forward_set": sorted(protocol.forward_set),
        "transmissions": outcome.transmissions,
    }
    return elapsed, payload


def _section_construction(record: dict, sizes: List[str], repeats: int) -> None:
    section: dict = {}
    for name in sizes:
        positions = _positions(name)
        n = len(positions)
        grid_seconds, network = _timed(
            lambda: build_unit_disk_graph(positions, RADIUS, method="grid"),
            repeats,
        )
        entry = {
            "nodes": n,
            "links": network.link_count,
            "grid_seconds": round(grid_seconds, 4),
            "grid_nodes_per_second": round(n / grid_seconds) if grid_seconds else None,
        }
        if name in PAIRWISE_FEASIBLE:
            pairwise_seconds, reference = _timed(
                lambda: build_unit_disk_graph(
                    positions, RADIUS, method="pairwise"
                ),
                repeats,
            )
            entry["pairwise_seconds"] = round(pairwise_seconds, 4)
            entry["speedup"] = (
                round(pairwise_seconds / grid_seconds, 2)
                if grid_seconds
                else None
            )
            entry["first_divergence"] = first_divergence(
                _edge_payload(reference), _edge_payload(network),
                "pairwise", "grid",
            )
        else:
            entry["pairwise_seconds"] = None
            entry["pairwise_infeasible_pair_count"] = n * (n - 1) // 2
        section[name] = entry
    record["construction"] = section


def _section_calibration(record: dict, sizes: List[str], repeats: int) -> None:
    section: dict = {}
    for name in sizes:
        positions = _positions(name)
        n = len(positions)
        links = n * 6 // 2  # the paper's nd/2 recipe at d = 6
        grid_seconds, grid_radius = _timed(
            lambda: range_for_link_count(positions, links, method="grid"),
            repeats,
        )
        entry = {
            "nodes": n,
            "links_requested": links,
            "grid_seconds": round(grid_seconds, 4),
            "radius": grid_radius,
        }
        if name in PAIRWISE_FEASIBLE:
            pairwise_seconds, pairwise_radius = _timed(
                lambda: range_for_link_count(
                    positions, links, method="pairwise"
                ),
                repeats,
            )
            entry["pairwise_seconds"] = round(pairwise_seconds, 4)
            entry["radius_identical"] = grid_radius == pairwise_radius
        section[name] = entry
    record["calibration"] = section


def _section_broadcast(
    record: dict, smoke: bool, repeats: int
) -> Optional[str]:
    """Time bitset vs numpy; gate forward-set identity across all three.

    Returns the first divergence path (or ``None`` when identical).
    """
    graph = random_grid_network(
        FIXTURES[BROADCAST_AB_SIZE]["side"],
        FIXTURES[BROADCAST_AB_SIZE]["occupancy"],
        random.Random(FIXTURES[BROADCAST_AB_SIZE]["seed"]),
        RADIUS,
    ).topology
    times: Dict[str, float] = {}
    payloads: Dict[str, dict] = {}
    for backend in ("bitset", "numpy"):
        best = float("inf")
        for _ in range(repeats):
            elapsed, payloads[backend] = _broadcast(graph, backend)
            best = min(best, elapsed)
        times[backend] = best
    # The sets reference joins the identity gate once (it is the slow arm).
    _elapsed, payloads["sets"] = _broadcast(graph, "sets")
    os.environ.pop("REPRO_COVERAGE_BACKEND", None)
    divergence = first_divergence(
        payloads["sets"], payloads["bitset"], "sets", "bitset"
    ) or first_divergence(
        payloads["bitset"], payloads["numpy"], "bitset", "numpy"
    )
    section = {
        "fixture": BROADCAST_AB_SIZE,
        "nodes": graph.node_count(),
        "bitset_seconds": round(times["bitset"], 4),
        "numpy_seconds": round(times["numpy"], 4),
        "speedup": (
            round(times["bitset"] / times["numpy"], 2)
            if times["numpy"]
            else None
        ),
        "forward_set_size": len(payloads["numpy"]["forward_set"]),
        "first_divergence": divergence,
    }
    if not smoke:
        large = random_grid_network(
            FIXTURES[BROADCAST_NUMPY_SIZE]["side"],
            FIXTURES[BROADCAST_NUMPY_SIZE]["occupancy"],
            random.Random(FIXTURES[BROADCAST_NUMPY_SIZE]["seed"]),
            RADIUS,
        ).topology
        elapsed, payload = _broadcast(large, "numpy")
        os.environ.pop("REPRO_COVERAGE_BACKEND", None)
        section["numpy_at_scale"] = {
            "fixture": BROADCAST_NUMPY_SIZE,
            "nodes": large.node_count(),
            "numpy_seconds": round(elapsed, 4),
            "nodes_per_second": round(large.node_count() / elapsed)
            if elapsed
            else None,
            "forward_set_size": len(payload["forward_set"]),
        }
    record["full_broadcast"] = section
    return divergence


def run_benchmark(repeats: int, smoke: bool) -> dict:
    sizes = ["1k"] if smoke else list(FIXTURES)
    record: dict = {
        "benchmark": "bench_scale",
        "mode": "smoke" if smoke else "full",
        "fixtures": {
            name: dict(FIXTURES[name], radius=RADIUS) for name in sizes
        },
        "repeats": repeats,
    }
    _section_construction(record, sizes, repeats)
    _section_calibration(
        record, [s for s in CALIBRATION_SIZES if s in sizes], repeats
    )
    divergence = _section_broadcast(record, smoke, repeats)

    broadcast = record["full_broadcast"]
    construction_1k = record["construction"]["1k"]
    gates = {
        "construction_identity_1k": {
            "first_divergence": construction_1k["first_divergence"],
            "passed": construction_1k["first_divergence"] is None,
        },
        "calibration_identity_1k": {
            "passed": record["calibration"]["1k"]["radius_identical"],
        },
        "forward_sets_identical": {
            "backends": ["sets", "bitset", "numpy"],
            "first_divergence": divergence,
            "passed": divergence is None,
        },
        "numpy_vs_bitset_broadcast": {
            "required_speedup": 1.0,
            "observed": broadcast["speedup"],
            "passed": broadcast["speedup"] is not None
            and broadcast["speedup"] >= 1.0,
        },
    }
    if not smoke:
        built_100k = record["construction"]["100k"]
        gates["grid_completes_100k"] = {
            "nodes": built_100k["nodes"],
            "grid_nodes_per_second": built_100k["grid_nodes_per_second"],
            "passed": built_100k["links"] > 0
            and built_100k["grid_seconds"] > 0,
        }
    record["gates"] = gates
    record["passed"] = all(gate["passed"] for gate in gates.values())
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cell-grid builder and numpy backend scale benchmark."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="1k fixture only: identity gates plus numpy-not-losing floor",
    )
    parser.add_argument(
        "--repeats", type=int, default=0,
        help="repetitions per timing (0 = 1 in smoke mode, 3 in full)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record (default: BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.smoke else 3)

    record = run_benchmark(repeats, args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["passed"]:
        print("FAIL: a scale gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
