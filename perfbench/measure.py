"""Sample statistics, seed derivation and the host fingerprint.

Kept free of workload code so the tests can pin the rules directly:

* :func:`tail` reports a percentile only together with whether it is
  backed by at least :data:`MIN_BEYOND` samples above it; a run whose
  p90 rests on fewer is flagged, not silently reported.
* :func:`derive_seed` turns the ``--seed`` argument plus labels into a
  generator seed through sha256, so every input of a workload follows
  from the seed alone and two inputs never share a stream.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
from typing import Dict, List, Sequence, Tuple

from repro.metrics.stats import percentile

__all__ = [
    "MIN_BEYOND",
    "derive_seed",
    "fingerprint",
    "mean",
    "median",
    "peak_rss_mb",
    "tail",
]

#: Samples a reported percentile needs strictly beyond it.
MIN_BEYOND = 10


def derive_seed(seed: int, *labels: object) -> int:
    """The generator seed for one input: ``sha256(seed|label|...)``."""
    text = "|".join(str(part) for part in (seed,) + labels)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of an empty sample")
    return statistics.median(samples)


def tail(samples: Sequence[float], q: float) -> Tuple[float, bool]:
    """The ``q``-th percentile and whether it has enough samples beyond.

    ``n`` samples put ``floor(n * (100 - q) / 100)`` of them beyond the
    ``q``-th percentile; fewer than :data:`MIN_BEYOND` flags the value
    (p90 therefore needs at least 100 samples, p95 at least 200).
    """
    value = percentile(list(samples), q)
    beyond = math.floor(len(samples) * (100.0 - q) / 100.0 + 1e-9)
    return value, beyond >= MIN_BEYOND


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (forked children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_head(root: str) -> str:
    # The ceiling keeps git from searching above the checkout for a repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    head = done.stdout.strip()
    return head if done.returncode == 0 and head else "unknown"


def fingerprint(root: str, seed: int, backend: str) -> Dict[str, object]:
    """Host and input identity recorded beside every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_head": _git_head(root),
        "seed": seed,
        "coverage_backend": backend,
    }


def mean(samples: List[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0
