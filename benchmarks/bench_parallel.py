"""Parallel harness benchmark: serial vs. parallel wall-clock on a
Fig. 11-sized sweep, plus the byte-identity check that guards the
determinism contract.

Run directly for the full record (written to ``BENCH_parallel.json`` at
the repo root so the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py --jobs 8 --out my.json

``--smoke`` shrinks the sweep to seconds and exits non-zero if the
parallel tables diverge from serial in any byte — the CI regression
gate.  The module also exposes a pytest-benchmark entry so the figure
benchmark suite picks the comparison up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.experiments.config import RunSettings
from repro.experiments.export import tables_to_json
from repro.experiments.figures import fig11_selection
from repro.experiments.runner import run_figure
from tests.divergence import first_divergence

#: Default output location: repo root, next to EXPERIMENTS.md.
DEFAULT_OUT = os.path.join(ROOT, "BENCH_parallel.json")

FULL_NS = (20, 40, 60, 80, 100)
SMOKE_NS = (15, 20)


def _settings(jobs: int, smoke: bool) -> RunSettings:
    if smoke:
        return RunSettings(
            min_runs=4, max_runs=6, relative_half_width=0.5,
            seed=20030519, jobs=jobs,
        )
    return RunSettings(
        min_runs=10, max_runs=25, relative_half_width=0.02,
        seed=20030519, jobs=jobs,
    )


def run_comparison(jobs: int, smoke: bool) -> dict:
    """Time the same Fig. 11 sweep serially and at ``jobs`` workers.

    ``jobs`` is the *requested* worker count; it is clamped to the
    machine's core count before timing (oversubscription only measures
    scheduler noise).  The byte-identity check always runs against a
    real pool of at least two workers — it guards determinism, not
    speed, so it must not silently degrade to a serial run on small
    machines, and its verdict is independent of any speedup figure.
    """
    ns = SMOKE_NS if smoke else FULL_NS
    figure = fig11_selection(ns=ns)
    point_count = sum(len(panel.series) * len(panel.ns) for panel in figure.panels)
    cores = os.cpu_count() or 1
    jobs_effective = max(1, min(jobs, cores))
    identity_jobs = max(2, jobs_effective)

    start = time.perf_counter()
    serial_tables = run_figure(figure, _settings(1, smoke))
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_tables = run_figure(figure, _settings(jobs_effective, smoke))
    parallel_seconds = time.perf_counter() - start

    if identity_jobs == jobs_effective:
        identity_tables = parallel_tables
    else:
        identity_tables = run_figure(figure, _settings(identity_jobs, smoke))

    serial_payload = tables_to_json(serial_tables)
    identity_payload = tables_to_json(identity_tables)
    divergence = first_divergence(
        serial_payload, identity_payload, "serial", "parallel"
    )
    speedup = None
    if jobs_effective >= 2 and parallel_seconds:
        speedup = round(serial_seconds / parallel_seconds, 3)
    return {
        "divergence": divergence,
        "benchmark": "bench_parallel",
        "figure": "fig11",
        "mode": "smoke" if smoke else "full",
        "point_count": point_count,
        "jobs_requested": jobs,
        "jobs_effective": jobs_effective,
        "identity_jobs": identity_jobs,
        "cpu_count": cores,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": speedup,
        "byte_identical": divergence is None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serial vs parallel figure sweep benchmark."
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker count for the parallel leg "
        "(0 = all cores; clamped to the machine's core count)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sweep; non-zero exit if parallel diverges from serial",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record (default: BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs or (os.cpu_count() or 1)

    record = run_comparison(jobs, args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["byte_identical"]:
        print(
            "FAIL: byte-identity gate — the parallel sweep "
            f"(jobs={record['identity_jobs']}) diverges from the serial "
            "run.  The determinism contract (byte-identical tables at "
            "any --jobs N) is broken; first divergence:\n"
            f"  {record['divergence']}",
            file=sys.stderr,
        )
        return 1
    return 0


def test_first_divergence_localises_the_mismatch():
    """The gate's failure message names the first divergent JSON path."""
    serial = {"tables": [{"series": [{"points": [1.0, 2.0]}]}]}
    parallel = {"tables": [{"series": [{"points": [1.0, 2.5]}]}]}
    assert first_divergence(serial, serial, "serial", "parallel") is None
    detail = first_divergence(serial, parallel, "serial", "parallel")
    assert detail == (
        "$.tables[0].series[0].points[1]: serial=2.0 parallel=2.5"
    )
    assert "length" in first_divergence([1], [1, 2], "serial", "parallel")
    assert "only in serial" in first_divergence(
        {"a": 1}, {}, "serial", "parallel"
    )


def test_parallel_matches_serial(benchmark, tmp_path):
    """pytest-benchmark entry: the smoke comparison must stay identical."""
    record = benchmark.pedantic(
        lambda: run_comparison(jobs=2, smoke=True), rounds=1, iterations=1
    )
    assert record["byte_identical"], record["divergence"]
    assert record["divergence"] is None
    assert record["point_count"] == 2 * 4 * len(SMOKE_NS)
    assert record["jobs_effective"] <= (os.cpu_count() or 1)
    assert record["identity_jobs"] >= 2


if __name__ == "__main__":
    sys.exit(main())
