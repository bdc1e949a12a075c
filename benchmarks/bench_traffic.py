"""Broadcast service benchmark: stream throughput plus the byte-identity
gate between the service path and the frozen single-message goldens.

Run directly for the full record (written to ``BENCH_traffic.json`` at
the repo root so the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_traffic.py
    PYTHONPATH=src python benchmarks/bench_traffic.py --smoke
    PYTHONPATH=src python benchmarks/bench_traffic.py --out my.json

Two legs:

* **identity** — on every configured coverage backend (sets and bitset;
  numpy joins when installed), a one-message
  :class:`~repro.sim.traffic.SingleShot` service run must reproduce the
  frozen record of the retired single-message engine
  (``tests/sim/legacy_engine_golden.jsonl``) byte for byte: source,
  forward set, completion time, byte count, and the sha256 of the typed
  event stream.  Any mismatch fails the benchmark and is localised with
  a ``first_divergence`` JSON path.
* **throughput** — the service drives Poisson streams over a large
  deployment (1000 nodes in full mode) at a ladder of offered loads and
  records simulated messages per wall-clock second per point.

``--smoke`` shrinks both legs to seconds for the CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment
from repro.sim.service import ServiceEngine
from repro.sim.traffic import PoissonTraffic
from tests.sim.legacy_golden import (
    TRAFFIC_PROTOCOLS,
    TRAFFIC_SEED,
    divergence,
    run_case,
    traffic_case,
)
from tests.divergence import first_divergence

#: Default output location: repo root, next to EXPERIMENTS.md.
DEFAULT_OUT = os.path.join(ROOT, "BENCH_traffic.json")

#: Coverage backends the identity gate always covers; numpy is appended
#: at runtime when importable (it is an optional dependency).
BASE_BACKENDS = ("sets", "bitset")

FULL_RATES = (0.5, 2.0, 8.0)
SMOKE_RATES = (0.5, 2.0, 8.0)



def _backends() -> List[str]:
    backends = list(BASE_BACKENDS)
    try:
        import numpy  # noqa: F401
    except ImportError:
        pass
    else:
        backends.append("numpy")
    return backends


def check_identity(n: int, degree: float, seeds: int) -> Dict:
    """Service single-message runs vs the frozen records, per backend.

    Each run gets a fresh deployment (a shared graph would leak
    query-cache warmth) with the frozen case's protocol, source and
    decision-RNG seed, so any divergence is the service's.
    """
    checks = 0
    found = None
    ambient = os.environ.get("REPRO_COVERAGE_BACKEND")
    for backend in _backends():
        os.environ["REPRO_COVERAGE_BACKEND"] = backend
        for label in TRAFFIC_PROTOCOLS:
            for seed in range(seeds):
                case = traffic_case(n, degree, label, seed)
                checks += 1
                detail = divergence(case, run_case(case))
                if detail is not None and found is None:
                    found = f"backend={backend} {detail}"
    # Restore the ambient backend (CI matrixes it for the throughput leg).
    if ambient is None:
        os.environ.pop("REPRO_COVERAGE_BACKEND", None)
    else:
        os.environ["REPRO_COVERAGE_BACKEND"] = ambient
    return {
        "backends": _backends(),
        "protocols": list(TRAFFIC_PROTOCOLS),
        "seeds_per_combination": seeds,
        "checks": checks,
        "divergence": found,
        "byte_identical": found is None,
    }


def measure_throughput(n: int, degree: float, count: int, rates) -> Dict:
    """Service messages per wall-clock second at each offered load."""
    graph = random_connected_network(
        n, degree, random.Random(TRAFFIC_SEED)
    ).topology
    points = []
    for rate in rates:
        env = SimulationEnvironment(graph.copy())
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        protocol.prepare(env)
        traffic = PoissonTraffic(
            rate=rate, count=count, seed=TRAFFIC_SEED, size_units=4
        )
        engine = ServiceEngine(
            env,
            protocol,
            traffic,
            rng=random.Random(TRAFFIC_SEED ^ int(rate * 1000)),
        )
        start = time.perf_counter()
        outcome = engine.run()
        seconds = time.perf_counter() - start
        points.append(
            {
                "offered_rate": rate,
                "messages": len(outcome.messages),
                "delivered_messages": outcome.delivered_count,
                "goodput": round(outcome.goodput(), 6),
                "queue_depth_max": outcome.queue_depth_max,
                "messages_dropped": outcome.messages_dropped,
                "forward_set_reuses": outcome.forward_set_reuses,
                "wall_seconds": round(seconds, 4),
                "messages_per_second": (
                    round(len(outcome.messages) / seconds, 2)
                    if seconds
                    else None
                ),
            }
        )
    return {"n": n, "degree": degree, "count": count, "points": points}


def run_benchmark(smoke: bool) -> Dict:
    if smoke:
        identity = check_identity(n=40, degree=6.0, seeds=4)
        throughput = measure_throughput(
            n=60, degree=6.0, count=10, rates=SMOKE_RATES
        )
    else:
        identity = check_identity(n=200, degree=6.0, seeds=6)
        throughput = measure_throughput(
            n=1000, degree=6.0, count=30, rates=FULL_RATES
        )
    return {
        "benchmark": "bench_traffic",
        "mode": "smoke" if smoke else "full",
        "identity": identity,
        "throughput": throughput,
        "byte_identical": identity["byte_identical"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Broadcast service throughput + frozen-golden "
        "byte-identity gate."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fixtures; non-zero exit if the service diverges "
        "from the frozen single-message goldens",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record (default: BENCH_traffic.json)",
    )
    args = parser.parse_args(argv)

    record = run_benchmark(args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["byte_identical"]:
        print(
            "FAIL: byte-identity gate — the one-message service path "
            "diverges from the frozen goldens.  First divergence:\n"
            f"  {record['identity']['divergence']}",
            file=sys.stderr,
        )
        return 1
    return 0


def test_first_divergence_localises_the_mismatch():
    """The gate's failure message names the first divergent JSON path."""
    legacy = {"events": ["a", "b"], "forward_nodes": [1, 2]}
    service = {"events": ["a", "c"], "forward_nodes": [1, 2]}
    assert first_divergence(legacy, legacy, "legacy", "service") is None
    detail = first_divergence(legacy, service, "legacy", "service")
    assert detail == "$.events[1]: legacy='b' service='c'"
    assert "length" in first_divergence([1], [1, 2], "legacy", "service")
    assert "only in legacy" in first_divergence(
        {"a": 1}, {}, "legacy", "service"
    )


def test_service_matches_legacy(benchmark):
    """pytest-benchmark entry: the smoke comparison must stay identical."""
    record = benchmark.pedantic(
        lambda: run_benchmark(smoke=True), rounds=1, iterations=1
    )
    assert record["byte_identical"], record["identity"]["divergence"]
    assert len(record["throughput"]["points"]) >= 3
    assert all(
        point["messages_per_second"] > 0
        for point in record["throughput"]["points"]
    )


if __name__ == "__main__":
    sys.exit(main())
