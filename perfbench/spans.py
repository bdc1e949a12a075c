"""In-memory timing spans and the self-time arithmetic over them.

A :class:`Tracer` records one span per call into a layer: its name,
start, end, parent span and the op it belongs to.  Spans stay in
parallel lists while the run is measured and are written out once, when
the run ends (:meth:`Tracer.write_jsonl`).

A span's *self time* is its duration minus the union of its children's
intervals (clipped to the span), so it is never negative even when
children overlap each other.  The workloads compare the summed self
times with a clock read around the whole traced pass, so time that no
span covers shows up rather than vanishing.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["SPAN_FIELDS", "Tracer", "interval_union", "self_times", "layer_totals"]

#: The columns of a written span line.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")


class Tracer:
    """Span recorder with an injected clock.

    ``open``/``close`` bracket one call; the span open at ``open`` time
    becomes the parent.  ``op`` is set by the harness to the id of the
    operation being measured and is stamped on every span opened under
    it.  Spans opened in a forked child are ignored (``pid`` check), so a
    worker that inherits patched functions does not grow a private copy
    of the trace.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.op = 0
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed while "
                f"{self.names[popped]!r} was innermost"
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        tracer = self
        getpid = os.getpid

        def traced(*args, **kwargs):
            if getpid() != tracer.pid:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> List[Tuple[str, float, float, int, int]]:
        """Every span as ``(name, start, end, parent, op)``."""
        return list(
            zip(self.names, self.starts, self.ends, self.parents, self.ops)
        )

    def write_jsonl(self, path: str) -> None:
        """Write the spans in open order: a header line naming the
        fields, then one ``[id, name, start, end, parent, op]`` array per
        span (the span's id is its line number minus one)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": list(SPAN_FIELDS)}, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans()):
                handle.write(json.dumps([index, *span]) + "\n")


def interval_union(
    intervals: Iterable[Tuple[float, float]], low: float, high: float
) -> float:
    """Total length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(
    spans: Sequence[Tuple[str, float, float, int, int]],
) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = interval_union(children.get(index, ()), start, end)
        result.append(max(0.0, (end - start) - covered))
    return result


def layer_totals(
    spans: Sequence[Tuple[str, float, float, int, int]],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time and call count."""
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (name, *_rest), own in zip(spans, self_times(spans)):
        seconds[name] = seconds.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls
