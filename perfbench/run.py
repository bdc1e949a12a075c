"""Run the repository benchmark.

One workload in this process (the form a regression harness calls)::

    python3 perfbench/run.py --workload traffic --seed 1 --seconds 24 --trace 0

Every workload, each in its own fresh process, with a summary table::

    python3 perfbench/run.py --seed 1            # end-to-end metrics
    python3 perfbench/run.py --seed 1 --trace 1  # per-layer metrics

The workloads and metrics are those ``BENCHMARK.json`` names.

The last line of a single-workload run is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the fingerprint, every metric with unit and direction, and any
flags.  A detail record (and, traced, the span list) is written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BACKEND_VARIABLE = "REPRO_COVERAGE_BACKEND"


def _prepare_imports() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"perfbench: no program source at {SRC}/repro; run from a full "
            "checkout of the repository"
        )
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _format(value: float) -> str:
    return f"{value:.6g}"


def run_one(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    """Measure one workload in this process and print its result line."""
    # The CI matrix sets the backend through the environment; the
    # benchmark always measures the default, so drop any ambient value.
    os.environ.pop(BACKEND_VARIABLE, None)
    _prepare_imports()
    from perfbench.measure import fingerprint
    from perfbench.metrics import BETTER, END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import Run, run_workload
    from repro.core.coverage import coverage_backend

    backend = coverage_backend()
    result = run_workload(
        workload, Run(seed=seed, seconds=seconds, trace=trace, size=size)
    )
    if coverage_backend() != backend:
        raise SystemExit("perfbench: the coverage backend changed mid-run")
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    missing = [name for name in names if name not in result.metrics]
    if missing:
        raise SystemExit(f"perfbench: {workload} did not report {missing}")
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": UNITS[name]}
        for name in names
    }
    tracer = result.details.pop("tracer", None)
    record = {
        "workload": workload,
        "trace": int(trace),
        "size": size,
        "fingerprint": fingerprint(ROOT, seed, backend),
        "flags": result.flags,
        "identical": result.identical,
        "details": result.details,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    if tracer is not None:
        tracer.write_jsonl(stem + ".spans.jsonl")

    print(f"# {workload}: " + json.dumps(record["fingerprint"], sort_keys=True))
    for name in names:
        print(
            f"#   {name} = {_format(metrics[name]['value'])} "
            f"{UNITS[name]} ({BETTER[name]} is better)"
        )
    for flag in result.flags:
        print(f"#   flag: {flag}")
    correct = result.identical and result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop(BACKEND_VARIABLE, None)
    return env


def run_every(seed: int, seconds: float, trace: bool, size: str) -> int:
    _prepare_imports()
    from perfbench.metrics import workload_names

    summary: List[Dict[str, object]] = []
    status = 0
    for workload in workload_names():
        done = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--size", size,
            ],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            summary.append({"workload": workload, "error": done.returncode})
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        summary.append({"workload": workload, **result})
    print("# summary")
    for row in summary:
        if "error" in row:
            print(f"#   {row['workload']}: exit code {row['error']}")
            continue
        print(
            f"#   {row['workload']}: correct={row['correct']} "
            f"attempted={row['attempted']} failed={row['failed']}"
        )
        for name, metric in row["metrics"].items():
            print(f"#     {name} = {_format(metric['value'])} {metric['unit']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    _prepare_imports()
    from perfbench.metrics import RUN_SECONDS, workload_names

    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_every(args.seed, seconds, bool(args.trace), args.size)
    if args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; one of {workload_names()}")
    return run_one(args.workload, args.seed, seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
