"""Tiny-size end-to-end runs of every workload through the command line.

Each run must print, as its last line, the result object with every
named metric and its unit, report zero failed ops and pass its checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER, workload_names

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "perfbench", "run.py")]
        + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workload_names())
def test_tiny_run_reports_every_metric(workload, trace):
    env = dict(os.environ, REPRO_COVERAGE_BACKEND="sets")
    done = _run(
        ["--workload", workload, "--seed", "5", "--seconds", "0.3",
         "--trace", str(trace), "--size", "tiny"],
        env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert sorted(result["metrics"]) == sorted(m.name for m in expected)
    for metric in expected:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float)
    # The ambient backend variable is dropped: the default is measured.
    assert '"coverage_backend": "bitset"' in done.stdout
    if not trace:
        assert all(
            result["metrics"][m.name]["value"] > 0 for m in END_TO_END
        )


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(
        ["--workload", "broadcast", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
