"""Measurement hooks injected into the program through its public API.

Nothing here edits the program.  Where an API takes an object, the
benchmark passes one of these instead:

* :class:`TracedEnvironment` -- a ``SimulationEnvironment`` whose view
  accessors record ``views`` spans;
* :class:`TracedProtocol` -- a delegating protocol wrapper recording
  ``algorithms`` spans;
* :class:`TracedMac` / :class:`ClockMac` -- ``MacModel`` wrappers around
  the ideal MAC: the first records ``mac`` spans, the second only reads
  the clock at each injection and transmission, so an untraced service
  run yields a wall latency per message;
* :class:`TimedTrace` -- a ``FlipTrace`` whose ``replay()`` times every
  step it yields (and, traced, records the ``graph`` span of the delta).

Where the program looks a function up at call time, :func:`patched_layers`
rebinds the module attribute for the duration of a traced run and
restores it afterwards.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, List, Optional

import repro.algorithms.generic as generic_module
import repro.experiments.runner as runner_module
from repro.graph.fliptrace import FlipTrace
from repro.sim.engine import SimulationEnvironment
from repro.sim.mac import IdealMac, MacModel

from .spans import Tracer

__all__ = [
    "ClockMac",
    "StepRecord",
    "StepRecorder",
    "TimedTrace",
    "TracedEnvironment",
    "TracedMac",
    "TracedProtocol",
    "patched_layers",
]

#: ``(module, attribute, span name)`` rebound by :func:`patched_layers`.
PATCH_POINTS = (
    (runner_module, "local_view", "views"),
    (runner_module, "coverage_condition", "coverage"),
    (generic_module, "coverage_condition", "coverage"),
)


@contextmanager
def patched_layers(tracer: Tracer) -> Iterator[None]:
    """Rebind the call-time lookups of :data:`PATCH_POINTS` to traced
    wrappers; the originals are back in place when the block exits."""
    saved = [
        (module, name, getattr(module, name))
        for module, name, _span in PATCH_POINTS
    ]
    try:
        for module, name, span in PATCH_POINTS:
            setattr(module, name, tracer.wrap(span, getattr(module, name)))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


class TracedEnvironment(SimulationEnvironment):
    """Records a ``views`` span per view-graph or view lookup."""

    def __init__(self, graph, scheme=None, tracer: Optional[Tracer] = None):
        super().__init__(graph, scheme)
        self._tracer = tracer

    def view_graph(self, node, hops):
        index = self._tracer.open("views")
        try:
            return super().view_graph(node, hops)
        finally:
            self._tracer.close(index)

    def make_view(self, view_graph, visited, designated):
        index = self._tracer.open("views")
        try:
            return super().make_view(view_graph, visited, designated)
        finally:
            self._tracer.close(index)


class TracedProtocol:
    """Delegates to a protocol, recording its decisions as ``algorithms``
    spans.  Attribute reads (timing, hops, flags) fall through to the
    wrapped protocol, so the engine sees the same configuration."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self.prepare = tracer.wrap("algorithms", inner.prepare)
        self.should_forward = tracer.wrap("algorithms", inner.should_forward)
        self.designate = tracer.wrap("algorithms", inner.designate)
        self.decision_delay = tracer.wrap("algorithms", inner.decision_delay)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedMac(MacModel):
    """The ideal MAC with ``mac`` spans around each transmission's
    delivery fan-out, the per-injection retire and the reset.

    ``corrupted`` is called once per delivery; it is counted in
    :attr:`corrupted_calls` but not spanned, so its small cost stays in
    the service layer's self time rather than doubling the span count.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._inner = IdealMac()
        self._deliveries = tracer.wrap("mac", self._inner.deliveries)
        self._retire = tracer.wrap("mac", self._inner.retire)
        self._reset = tracer.wrap("mac", self._inner.reset)
        self.corrupted_calls = 0

    def deliveries(self, sender, time, neighbors, rng):
        return self._deliveries(sender, time, neighbors, rng)

    def retire(self, now):
        self._retire(now)

    def reset(self):
        self._reset()

    def corrupted(self, receiver, arrival):
        self.corrupted_calls += 1
        return self._inner.corrupted(receiver, arrival)


class ClockMac(MacModel):
    """The ideal MAC, reading the wall clock whenever the service injects
    a message (it calls :meth:`retire` once per injection) or transmits a
    copy, so an untraced service run yields a wall time per message."""

    def __init__(self) -> None:
        self._inner = IdealMac()
        #: Simulation time and wall clock of every call, in call order.
        self._sim_times: List[float] = []
        self._walls: List[float] = []

    def _mark(self, now: float) -> None:
        self._sim_times.append(now)
        self._walls.append(perf_counter())

    def deliveries(self, sender, time, neighbors, rng):
        self._mark(time)
        return self._inner.deliveries(sender, time, neighbors, rng)

    def retire(self, now):
        self._mark(now)
        self._inner.retire(now)

    def reset(self):
        self._inner.reset()

    def _wall_at(self, sim_time: float, end_wall: float) -> float:
        """The wall clock when the service first acted at or after
        ``sim_time`` (``end_wall`` if it never did)."""
        index = bisect_left(self._sim_times, sim_time)
        return self._walls[index] if index < len(self._walls) else end_wall

    def message_walls(self, messages, end_wall: float) -> List[float]:
        """Wall time from each message's injection until the service
        first acted at or after its completion time: the wall latency a
        user of the service sees.  The service runs in simulated-time
        order, so the marks are sorted by simulation time."""
        walls = []
        for outcome in messages:
            start = self._wall_at(outcome.message.injected_at, end_wall)
            done = outcome.completed_at
            end = end_wall if done is None else self._wall_at(done, end_wall)
            walls.append(end - start)
        return walls


@dataclass
class StepRecord:
    """One replayed step: when it was asked for, when its delta was
    applied, when the next step was asked for, and what changed."""

    step: int
    start: float
    delta_end: float
    end: float
    flips: int
    dirty: int

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def delta_seconds(self) -> float:
        return self.delta_end - self.start


@dataclass
class StepRecorder:
    """Where a :class:`TimedTrace` writes its per-step records."""

    tracer: Optional[Tracer] = None
    steps: List[StepRecord] = field(default_factory=list)
    #: Live forked children seen at the first yield (shard workers).
    children_seen: int = 0


@dataclass(frozen=True)
class TimedTrace(FlipTrace):
    """A :class:`FlipTrace` whose replay times each step it yields.

    A step runs from the consumer asking for it to the consumer asking
    for the next one, so it covers the delta applied by ``replay`` and
    the consumer's re-decisions.  Traced, the delta part is a ``graph``
    span and every span opened during the step carries its step id.
    """

    recorder: Optional[StepRecorder] = field(default=None, compare=False)

    @staticmethod
    def of(trace: FlipTrace, recorder: StepRecorder) -> "TimedTrace":
        return TimedTrace(
            positions=trace.positions,
            radius=trace.radius,
            steps=trace.steps,
            recorder=recorder,
        )

    def replay(self, extra_radii=()):
        recorder = self.recorder
        clock = perf_counter
        tracer = recorder.tracer
        radii = tuple(extra_radii)
        radius = max(radii) if radii else None
        inner = FlipTrace.replay(self, radii)
        asked = clock()
        while True:
            span = tracer.open("graph") if tracer is not None else -1
            try:
                snap = next(inner)
            except StopIteration:
                return
            finally:
                if tracer is not None:
                    tracer.close(span)
            applied = clock()
            if not recorder.steps and not recorder.children_seen:
                recorder.children_seen = len(multiprocessing.active_children())
            if tracer is not None:
                tracer.op = snap.step
            yield snap
            now = clock()
            recorder.steps.append(
                StepRecord(
                    step=snap.step,
                    start=asked,
                    delta_end=applied,
                    end=now,
                    flips=snap.flip_count,
                    dirty=_dirty_count(snap, radius),
                )
            )
            asked = now


def _dirty_count(snap, radius: Optional[int]) -> int:
    report = snap.report
    if report is None:
        return 0
    if radius is None:
        return len(report.dirty_nodes)
    return len(report.dirty_at(radius))
