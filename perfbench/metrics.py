"""The benchmark's metric and workload catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place the
workloads, metrics, units, directions and bounds are written down; the
harness only reads it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple

__all__ = [
    "BETTER",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "UNITS",
    "WORKLOADS",
    "workload_names",
]

MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0


with open(MANIFEST, encoding="utf-8") as _handle:
    _DOCUMENT = json.load(_handle)

#: Seconds one run measures for (the default ``--seconds``).
RUN_SECONDS: int = _DOCUMENT["run_seconds"]
#: ``(name, why)`` in run order.
WORKLOADS = tuple((w["name"], w["why"]) for w in _DOCUMENT["workloads"])
END_TO_END = tuple(Metric(**m) for m in _DOCUMENT["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in _DOCUMENT["per_layer"])

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BETTER: Dict[str, str] = {m.name: m.better for m in END_TO_END + PER_LAYER}


def workload_names() -> List[str]:
    return [name for name, _why in WORKLOADS]
