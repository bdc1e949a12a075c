"""The shared point executor behind both sweeps, without ``fork``.

On a platform without the ``fork`` start method, ``jobs > 1`` must
degrade to the serial loop: the same tables as ``jobs=1`` and one
progress line saying so, ahead of the serial run's own lines.
"""

import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.experiments import parallel
from repro.experiments.config import RunSettings
from repro.experiments.export import tables_to_json
from repro.experiments.figures import fig16_backoff
from repro.experiments.runner import run_figure
from repro.experiments.traffic import TrafficSweepConfig, run_traffic_sweep
from repro.graph.generators import random_connected_network

FALLBACK_LINE = "fork start method unavailable; running points serially"


def _figure(jobs, progress):
    figure = fig16_backoff(ns=[15], degrees=[6.0])
    settings = RunSettings(
        min_runs=4, max_runs=6, relative_half_width=0.5, seed=7, jobs=jobs
    )
    return run_figure(figure, settings, progress=progress)


def _traffic(jobs, progress):
    graph = random_connected_network(20, 6.0, random.Random(71)).topology
    protocols = (
        ("flooding", Flooding),
        ("FR", lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)),
    )
    config = TrafficSweepConfig(rates=(0.5, 2.0), count=6, seed=9, jobs=jobs)
    return [run_traffic_sweep(graph, protocols, config, progress)]


@pytest.mark.parametrize("sweep", [_figure, _traffic], ids=["figure", "traffic"])
def test_no_fork_runs_serially_and_says_so_once(monkeypatch, sweep):
    serial_messages = []
    serial = sweep(1, serial_messages.append)
    monkeypatch.setattr(parallel, "fork_context", lambda: None)
    messages = []
    fallback = sweep(2, messages.append)
    assert tables_to_json(fallback) == tables_to_json(serial)
    assert messages.count(FALLBACK_LINE) == 1
    assert messages == [FALLBACK_LINE] + serial_messages
