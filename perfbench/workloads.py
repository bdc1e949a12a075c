"""The workloads: seeded set-up, timed ops, output checks, metrics.

Every workload follows the same shape:

1. **set-up** (untimed, reported as ``setup_s``): build the inputs from
   ``--seed`` several times, check the builds are identical, and keep
   the median build time;
2. **measure**: run a fixed number of passes over the same ops, with
   nothing but a clock read around each op.  ``--seconds`` sizes the
   ops through a nominal rate, so the seed alone fixes them.  An op's
   time is its fastest pass: on a shared machine the slower passes
   measure the neighbours' load, not the program (the rule ``timeit``
   uses);
3. **check** (untimed): every pass's output must equal the first pass's,
   and every op's output is verified; failures count against attempts.

Traced (``--trace 1``), one untraced pass is followed by the same ops
with spans and counters, and the per-layer split plus the overhead
between the two passes is reported instead.

An op is one broadcast (``broadcast``), one message of a service stream
(``traffic``) or one step of the flip trace (``mobility``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning, GenericStatic
from repro.core.priority import DegreePriority
from repro.experiments.runner import run_trace_sweep
from repro.experiments.sharded import run_sharded_trace
from repro.graph.cds import is_cds, is_dominating_set
from repro.graph.fliptrace import FlipTrace, record_flip_trace
from repro.graph.generators import random_connected_network
from repro.graph.geometry import Area, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.topology import Topology
from repro.graph.unit_disk import range_for_average_degree
from repro.instrument import InstrumentationCounters, collecting
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.service import ServiceEngine
from repro.sim.traffic import ZipfTraffic

from .measure import derive_seed, mean, median, peak_rss_mb, tail
from .probes import (
    ClockMac,
    StepRecorder,
    TimedTrace,
    TracedEnvironment,
    TracedMac,
    TracedProtocol,
    patched_layers,
)
from .spans import Tracer, layer_totals

__all__ = ["SIZES", "Result", "Run", "run_workload", "first_divergence"]

#: Workload parameters per size.  ``full`` is what the benchmark runs;
#: ``tiny`` is the smoke-test size.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "broadcast": {
            "n": 300, "degree": 18.0, "pool": 16, "passes": 6,
            "ops_per_second": 33.0,
        },
        "traffic": {
            "n": 300, "degree": 18.0, "streams": 6, "passes": 3,
            "rate": 0.5, "exponent": 1.2, "size_units": 4,
            "messages_per_second": 33.0,
        },
        "mobility": {
            "n": 2000, "degree": 6.0, "traces": 2, "steps": 56, "passes": 3,
            "pass_seconds": 3.6,
            "min_speed": 0.0015, "max_speed": 0.0045,
        },
    },
    "tiny": {
        "broadcast": {
            "n": 40, "degree": 8.0, "pool": 3, "passes": 2,
            "ops_per_second": 100.0,
        },
        "traffic": {
            "n": 40, "degree": 8.0, "streams": 3, "passes": 2,
            "rate": 0.5, "exponent": 1.2, "size_units": 4,
            "messages_per_second": 33.0,
        },
        "mobility": {
            "n": 150, "degree": 6.0, "traces": 2, "steps": 12, "passes": 2,
            "pass_seconds": 0.1,
            "min_speed": 0.01, "max_speed": 0.03,
        },
    },
}

#: Repeated set-ups per input; ``setup_s`` is the median build time.
SETUPS = 3
#: Mobility latency samples: broadcasts from this many seeded sources on
#: every ``LATENCY_EVERY``-th step.
LATENCY_SOURCES = 8
LATENCY_EVERY = 10
#: The sweep's view radius and shard grid.
K = 2
SHARDS = (2, 2)


@dataclass
class Result:
    """What one workload run reports."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    identical: bool = True
    flags: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    def diverged(self, what: str, found: Optional[str]) -> None:
        self.identical = False
        self.flags.append(f"{what} diverged: {found}")
        self.details.setdefault("first_divergence", found)


@dataclass
class Run:
    """The arguments of one workload run."""

    seed: int
    seconds: float
    trace: bool
    size: str = "full"

    def params(self, workload: str) -> Dict[str, float]:
        return SIZES[self.size][workload]


# ----------------------------------------------------------------------
# shared helpers


def first_divergence(left, right, path: str = "$") -> Optional[str]:
    """The JSON path of the first difference, or ``None`` if equal."""
    if type(left) is not type(right):
        return f"{path}: type {type(left).__name__} != {type(right).__name__}"
    if isinstance(left, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left or key not in right:
                return f"{path}.{key}: present on one side only"
            found = first_divergence(left[key], right[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(left, list):
        if len(left) != len(right):
            return f"{path}: length {len(left)} != {len(right)}"
        for index, (a, b) in enumerate(zip(left, right)):
            found = first_divergence(a, b, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if left != right:
        return f"{path}: {left!r} != {right!r}"
    return None


def _compare(result: Result, what: str, expected, got) -> None:
    """Record a divergence between two JSON-able payloads."""
    if json.dumps(expected, sort_keys=True) != json.dumps(got, sort_keys=True):
        result.diverged(what, first_divergence(expected, got))


def _timed_setups(
    result: Result, build: Callable[[], object], key: Callable[[object], object],
) -> Tuple[object, List[float]]:
    """Run ``build`` :data:`SETUPS` times; the builds must be identical."""
    outputs = []
    seconds = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        outputs.append(build())
        seconds.append(time.perf_counter() - start)
    first = key(outputs[0])
    for other in outputs[1:]:
        _compare(result, "repeated set-up", first, key(other))
    return outputs[0], seconds


def _settle() -> None:
    """Collect, then freeze the set-up heap so the cyclic collector stops
    rescanning it: later collections cost what the ops allocate."""
    gc.collect()
    gc.freeze()


def _tails(result: Result, prefix: str, samples_ms: Sequence[float]) -> None:
    p50, _ok = tail(samples_ms, 50)
    p90, ok = tail(samples_ms, 90)
    result.metrics[f"{prefix}_p50"] = p50
    result.metrics[f"{prefix}_p90"] = p90
    if not ok:
        result.flags.append(
            f"{prefix}_p90 rests on {len(samples_ms)} samples "
            "(fewer than 10 beyond it)"
        )


def _op_metrics(
    result: Result,
    n: int,
    ops: int,
    seconds: float,
    op_ms: Sequence[float],
    latencies: Sequence[float],
    ratios: Sequence[float],
) -> None:
    """The end-to-end metrics every workload reports from its ops.

    ``ops`` completed in ``seconds`` of measured time; ``op_ms`` are the
    per-op wall times (on ``traffic``, where messages overlap, each
    message's wall latency: see :meth:`ClockMac.message_walls`).
    """
    rate = ops / seconds
    result.metrics["nodes_per_s"] = n * rate
    result.metrics["messages_per_s"] = rate
    result.metrics["steps_per_s"] = rate
    _tails(result, "broadcast_ms", op_ms)
    _tails(result, "step_ms", op_ms)
    p95, ok = tail(latencies, 95)
    result.metrics["sim_latency_p95"] = p95
    if not ok:
        result.flags.append(
            f"sim_latency_p95 rests on {len(latencies)} samples "
            "(fewer than 10 beyond it)"
        )
    result.metrics["forward_ratio"] = mean(list(ratios))
    result.details["samples"] = {
        "ops": ops, "op_ms": len(op_ms), "sim_latency": len(latencies),
    }


#: Span names: one per layer, plus ``bench`` for the benchmark's own time.
SPAN_LAYERS = (
    "graph", "views", "coverage", "algorithms", "service", "mac",
    "runner", "sharded", "bench",
)
#: The largest share of a traced pass's wall time that may fall outside
#: every span (the harness's loop between root spans).
UNCOVERED_SHARE = 0.01
#: Per-layer metrics only some workloads produce; the rest report 0.
_WORKLOAD_LAYER_METRICS = (
    "graph.build_s", "graph.delta_ms", "graph.flips_per_step",
    "graph.dirty_per_step", "sharded.wait_ms", "sharded.handoff_ratio",
    "sharded.flip_dup_ratio", "sharded.parent_redecides",
    "sharded.replica_nodes_max", "sharded.rehomes",
    "sharded.workers_effective",
)


def _layer_metrics(
    result: Result,
    tracer: Tracer,
    counters: InstrumentationCounters,
    untraced_seconds: float,
    traced_seconds: float,
    mac_calls_extra: int = 0,
) -> None:
    """Per-layer metrics from a traced pass's spans and counters.

    ``traced_seconds`` is the clock read around the whole traced pass
    and ``untraced_seconds`` around the untraced pass of the same ops.
    The layers' self times must account for the traced wall time: the
    part no span covers (``trace.uncovered_s``) may not exceed
    :data:`UNCOVERED_SHARE` of it.
    """
    seconds, calls = layer_totals(tracer.spans())
    if min(seconds.values(), default=0.0) < 0.0:
        result.identical = False
        result.flags.append("a layer's self time is negative")
    uncovered = traced_seconds - sum(seconds.values())
    if not -1e-6 <= uncovered <= UNCOVERED_SHARE * traced_seconds:
        result.identical = False
        result.flags.append(
            f"self times add to {traced_seconds - uncovered:.6f}s, "
            f"the traced wall is {traced_seconds:.6f}s"
        )

    def per_call(name: str) -> float:
        count = calls.get(name, 0)
        return seconds.get(name, 0.0) / count * 1e6 if count else 0.0

    m = result.metrics
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = seconds.get(layer, 0.0)
    for layer in ("views", "coverage", "algorithms"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["views.us_per_call"] = per_call("views")
    m["coverage.us_per_call"] = per_call("coverage")
    lookups = counters.coverage_memo_hits + counters.coverage_memo_misses
    m["coverage.memo_hit_ratio"] = (
        counters.coverage_memo_hits / lookups if lookups else 0.0
    )
    m["service.events"] = counters.scheduler_events
    m["service.decisions"] = counters.decisions
    m["service.reuse_ratio"] = (
        counters.forward_set_reuses / counters.decisions
        if counters.decisions else 0.0
    )
    m["service.queue_depth_max"] = counters.queue_depth_max
    m["service.drops"] = counters.messages_dropped
    m["mac.calls"] = calls.get("mac", 0) + mac_calls_extra
    m["trace.wall_s"] = traced_seconds
    m["trace.uncovered_s"] = uncovered
    m["trace.overhead_pct"] = (traced_seconds / untraced_seconds - 1.0) * 100.0
    for name in _WORKLOAD_LAYER_METRICS:
        m.setdefault(name, 0.0)
    result.details["layer_self_s"] = dict(sorted(seconds.items()))
    result.details["tracing"] = {
        "traced_s": traced_seconds,
        "untraced_s": untraced_seconds,
        "spans": len(tracer.names),
    }
    result.details["tracer"] = tracer


# ----------------------------------------------------------------------
# broadcast


@dataclass
class _BroadcastOp:
    pool_index: int
    source: int
    rng_seed: int
    seconds: float = 0.0
    forward: Tuple[int, ...] = ()
    delivered: int = 0
    completion: float = 0.0

    def payload(self) -> Dict[str, object]:
        return {
            "forward": list(self.forward),
            "delivered": self.delivered,
            "completion": self.completion,
        }


def _broadcast_plan(seed: int, index: int, pool: Sequence) -> _BroadcastOp:
    rng = random.Random(derive_seed(seed, "broadcast", "op", index))
    pool_index = rng.randrange(len(pool))
    source = rng.choice(pool[pool_index].nodes())
    return _BroadcastOp(
        pool_index, source, derive_seed(seed, "broadcast", "rng", index)
    )


def _broadcast_op(op: _BroadcastOp, pool, tracer: Optional[Tracer]) -> _BroadcastOp:
    graph = pool[op.pool_index].copy()  # cold: no query cache carried over
    rng = random.Random(op.rng_seed)
    gc.collect()  # every op starts from the same collector state
    if tracer is None:
        start = time.perf_counter()
        env = SimulationEnvironment(graph)
        protocol = GenericStatic(hops=None)
        protocol.prepare(env)
        outcome = run_broadcast(graph, protocol, op.source, rng=rng, env=env)
        op.seconds = time.perf_counter() - start
    else:
        span = tracer.open("service")
        env = TracedEnvironment(graph, tracer=tracer)
        tracer.close(span)
        protocol = TracedProtocol(GenericStatic(hops=None), tracer)
        protocol.prepare(env)
        span = tracer.open("service")
        outcome = run_broadcast(
            graph, protocol, op.source, rng=rng, env=env, mac=TracedMac(tracer)
        )
        tracer.close(span)
    op.forward = tuple(sorted(outcome.forward_nodes))
    op.delivered = len(outcome.delivered)
    op.completion = outcome.completion_time
    return op


def run_broadcast_workload(run: Run) -> Result:
    p = run.params("broadcast")
    n, degree, passes = int(p["n"]), p["degree"], int(p["passes"])
    result = Result()
    pool: List[Topology] = []
    build_seconds = []
    for index in range(int(p["pool"])):
        rng_seed = derive_seed(run.seed, "broadcast", "deployment", index)
        graph, seconds = _timed_setups(
            result,
            lambda: random_connected_network(n, degree, random.Random(rng_seed)).topology,
            lambda graph: sorted(graph.edges()),
        )
        pool.append(graph)
        build_seconds += seconds
    result.metrics["setup_s"] = median(build_seconds)
    _settle()

    # Sized so that ``passes`` passes over the ops fit ``--seconds``.
    ops = max(1, math.ceil(p["ops_per_second"] * run.seconds / passes))

    def one_pass(tracer: Optional[Tracer] = None) -> List[_BroadcastOp]:
        done = []
        for index in range(ops):
            if tracer is not None:
                tracer.op = index
                root = tracer.open("bench")
            done.append(_broadcast_op(_broadcast_plan(run.seed, index, pool), pool, tracer))
            if tracer is not None:
                tracer.close(root)
        return done

    began = time.perf_counter()
    first = one_pass()
    first_pass_seconds = time.perf_counter() - began
    runs = [first]
    if run.trace:
        tracer = Tracer()
        with patched_layers(tracer), collecting() as counters:
            began = time.perf_counter()
            runs.append(one_pass(tracer))
            traced_seconds = time.perf_counter() - began
        _layer_metrics(
            result, tracer, counters, first_pass_seconds, traced_seconds
        )
        result.metrics["graph.build_s"] = median(build_seconds)
    else:
        runs += [one_pass() for _ in range(passes - 1)]
    expected = [op.payload() for op in first]
    for later in runs[1:]:
        _compare(result, "repeated pass", expected, [op.payload() for op in later])
    bad = 0
    depths: List[int] = []
    for op in first:
        graph = pool[op.pool_index]
        relays = set(op.forward) | {op.source}
        reached = _relay_depths(graph, op.source, relays)
        # The engine's clock stops at the last delivery: the copies sent
        # by the latest relay, one time unit after it was reached.
        if (
            op.delivered != n
            or not is_cds(graph, relays)
            or max(reached[r] for r in relays) + 1 != op.completion
        ):
            bad += 1
        depths += [reached[v] for v in sorted(reached) if v != op.source]
    result.attempted = len(first) * len(runs)
    result.failed = bad * len(runs)
    best = [min(ops[i].seconds for ops in runs) for i in range(len(first))]
    if not run.trace:
        _op_metrics(
            result, n, len(best), sum(best),
            [seconds * 1e3 for seconds in best],
            depths,
            [len(op.forward) / n for op in first],
        )
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.details["passes"] = len(runs)
    return result


# ----------------------------------------------------------------------
# traffic


def _message_payload(outcome) -> List[Dict[str, object]]:
    return [
        {
            "id": m.message.message_id,
            "forward": sorted(m.forward_nodes),
            "completed_at": m.completed_at,
            "delivered_all": m.delivered_all,
        }
        for m in outcome.messages
    ]


def run_traffic_workload(run: Run) -> Result:
    p = run.params("traffic")
    n, degree = int(p["n"]), p["degree"]
    streams, passes = int(p["streams"]), int(p["passes"])
    result = Result()
    deployments: List[Topology] = []
    build_seconds: List[float] = []
    for index in range(streams):
        rng_seed = derive_seed(run.seed, "traffic", "deployment", index)
        graph, seconds = _timed_setups(
            result,
            lambda: random_connected_network(n, degree, random.Random(rng_seed)).topology,
            lambda graph: sorted(graph.edges()),
        )
        deployments.append(graph)
        build_seconds += seconds
    result.metrics["setup_s"] = median(build_seconds)
    _settle()
    # Sized so that ``passes`` passes over every stream fit ``--seconds``.
    count = max(1, math.ceil(p["messages_per_second"] * run.seconds / (streams * passes)))

    def stream(index: int, tracer: Optional[Tracer]):
        """One stream on a cold copy: the outcome, each message's wall
        latency in seconds, the stream's seconds, and (traced) the
        uncounted MAC calls."""
        graph = deployments[index].copy()
        traffic = ZipfTraffic(
            rate=p["rate"],
            count=count,
            exponent=p["exponent"],
            seed=derive_seed(run.seed, "traffic", "stream", index),
            size_units=int(p["size_units"]),
        )
        rng = random.Random(derive_seed(run.seed, "traffic", "rng", index))
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=K)
        gc.collect()  # every stream starts from the same collector state
        if tracer is None:
            mac = ClockMac()
            start = time.perf_counter()
            env = SimulationEnvironment(graph)
            outcome = ServiceEngine(env, protocol, traffic, rng=rng, mac=mac).run()
            end = time.perf_counter()
            return outcome, mac.message_walls(outcome.messages, end), end - start, 0
        span = tracer.open("service")
        env = TracedEnvironment(graph, tracer=tracer)
        traced = TracedProtocol(protocol, tracer)
        mac = TracedMac(tracer)
        outcome = ServiceEngine(env, traced, traffic, rng=rng, mac=mac).run()
        tracer.close(span)
        seconds = tracer.ends[span] - tracer.starts[span]
        return outcome, [], seconds, mac.corrupted_calls

    def one_pass(tracer: Optional[Tracer] = None):
        if tracer is None:
            return [stream(index, None) for index in range(streams)]
        done = []
        for index in range(streams):
            tracer.op = index
            root = tracer.open("bench")
            done.append(stream(index, tracer))
            tracer.close(root)
        return done

    began = time.perf_counter()
    first = one_pass()
    first_pass_seconds = time.perf_counter() - began
    outcomes = [entry[0] for entry in first]
    expected = [_message_payload(outcome) for outcome in outcomes]
    # Per pass, per stream: (message wall latencies, stream seconds).  Later
    # passes are checked and then dropped, so the heap does not grow
    # with the pass count.
    timings = [[(entry[1], entry[2]) for entry in first]]

    def check(again) -> None:
        _compare(
            result, "repeated pass", expected,
            [_message_payload(entry[0]) for entry in again],
        )
        timings.append([(entry[1], entry[2]) for entry in again])

    if run.trace:
        tracer = Tracer()
        with patched_layers(tracer), collecting() as counters:
            start = time.perf_counter()
            traced = one_pass(tracer)
            traced_seconds = time.perf_counter() - start
        check(traced)
        _layer_metrics(
            result, tracer, counters, first_pass_seconds, traced_seconds,
            mac_calls_extra=sum(entry[3] for entry in traced),
        )
        result.metrics["graph.build_s"] = median(build_seconds)
    else:
        for _ in range(passes - 1):
            check(one_pass())
    bad = 0
    for graph, outcome in zip(deployments, outcomes):
        for message in outcome.messages:
            forward = set(message.forward_nodes) | {message.message.source}
            if not message.delivered_all or not is_cds(graph, forward):
                bad += 1
    messages = sum(len(outcome.messages) for outcome in outcomes)
    result.attempted = messages * len(timings)
    result.failed = bad * len(timings)
    if not run.trace:
        best_walls = []
        best_seconds = 0.0
        for index in range(streams):
            best_seconds += min(each[index][1] for each in timings)
            best_walls += [
                min(walls) for walls in zip(*(each[index][0] for each in timings))
            ]
        _op_metrics(
            result, n,
            sum(outcome.delivered_count for outcome in outcomes), best_seconds,
            [wall * 1e3 for wall in best_walls],
            [latency for outcome in outcomes for latency in outcome.latencies()],
            [
                message.forward_count / n
                for outcome in outcomes
                for message in outcome.messages
            ],
        )
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.details.update(
        passes=len(timings),
        messages_per_stream=count,
        drops=[outcome.messages_dropped for outcome in outcomes],
        reuses=[outcome.forward_set_reuses for outcome in outcomes],
        queue_depth_max=[outcome.queue_depth_max for outcome in outcomes],
    )
    return result


# ----------------------------------------------------------------------
# mobility


def _record_trace(seed: int, index: int, p) -> FlipTrace:
    rng = random.Random(derive_seed(seed, "mobility", "deployment", index))
    positions = random_points(int(p["n"]), Area(), rng)
    radius, _links = range_for_average_degree(positions, p["degree"])
    model = RandomWaypointModel(
        positions,
        radius=radius,
        rng=random.Random(derive_seed(seed, "mobility", "waypoint", index)),
        min_speed=p["min_speed"],
        max_speed=p["max_speed"],
    )
    return record_flip_trace(model, int(p["steps"]), 1.0)


def _step_payload(steps) -> List[Dict[str, object]]:
    """The fields the serial and sharded sweeps must agree on."""
    return [
        {
            "step": s.step,
            "time": s.time,
            "forward": list(s.forward),
            "redecided": s.redecided,
            "added": s.added_edges,
            "removed": s.removed_edges,
        }
        for s in steps
    ]


def _relay_depths(graph: Topology, root: int, relays: Set[int]) -> Dict[int, int]:
    """Delivery time of every node a broadcast from ``root`` reaches when
    only ``relays`` (which holds ``root``) retransmit.

    Under the ideal MAC a copy takes one time unit per hop: a relay
    reached at time ``t`` transmits at ``t`` and its neighbours receive
    at ``t + 1``.
    """
    level = {root: 0}
    frontier = [root]
    while frontier:
        following = []
        for node in frontier:
            for neighbor in sorted(graph.neighbors(node) & relays):
                if neighbor not in level:
                    level[neighbor] = level[node] + 1
                    following.append(neighbor)
        frontier = following
    depths = {root: 0}
    for node in graph.nodes():
        heard = min(
            (level[u] for u in graph.neighbors(node) if u in level),
            default=None,
        )
        if node != root and heard is not None:
            depths[node] = heard + 1
    return depths


def _backbone_ok(graph: Topology, forward: Sequence[int]) -> bool:
    """Whether ``forward`` plus each component's lowest-id node is a CDS
    of every component (Theorem 1 with that node as the source)."""
    components = graph.connected_components()
    backbone = set(forward) | {min(component) for component in components}
    if not is_dominating_set(graph, backbone):
        return False
    return all(
        graph.is_connected_subset(backbone & component)
        for component in components
    )


def run_mobility_workload(run: Run) -> Result:
    p = run.params("mobility")
    n, passes = int(p["n"]), int(p["passes"])
    result = Result()
    traces: List[FlipTrace] = []
    build_seconds: List[float] = []
    for index in range(int(p["traces"])):
        trace, seconds = _timed_setups(
            result,
            lambda: _record_trace(run.seed, index, p),
            FlipTrace.to_jsonl_lines,
        )
        traces.append(trace)
        build_seconds += seconds
    result.metrics["setup_s"] = median(build_seconds)
    _settle()
    jobs = min(2, os.cpu_count() or 1)
    scheme = DegreePriority()
    steps = len(traces[0].steps)  # step 0 is the base snapshot

    def serial(trace: FlipTrace, recorder: StepRecorder):
        return run_trace_sweep(TimedTrace.of(trace, recorder), scheme, k=K)

    def sharded(trace: FlipTrace, recorder: StepRecorder):
        return run_sharded_trace(
            TimedTrace.of(trace, recorder), scheme, k=K, shards=SHARDS, jobs=jobs
        )

    # Passes over every trace, sized to fill ``--seconds`` (one when
    # traced).  Every sweep must reproduce its trace's first sweep; later
    # sweeps are checked and dropped, so the heap does not grow with
    # their count.
    count = 1 if run.trace else max(
        passes, math.ceil(run.seconds / p["pass_seconds"])
    )
    recorders = [StepRecorder() for _ in traces]
    sweep_seconds: List[List[float]] = [[] for _ in traces]
    references: List = []
    expected: List = []
    for _ in range(count):
        for index, trace in enumerate(traces):
            gc.collect()
            start = time.perf_counter()
            sweep = serial(trace, recorders[index])
            sweep_seconds[index].append(time.perf_counter() - start)
            if index < len(references):
                _compare(result, "serial sweep", expected[index], _step_payload(sweep))
            else:
                references.append(sweep)
                expected.append(_step_payload(sweep))
    # One sharded sweep per trace over the same flips, outside the
    # measured time: its steps must be byte-identical to the serial ones.
    shard_seconds = 0.0
    shard_sweeps = []
    for index, trace in enumerate(traces):
        gc.collect()
        start = time.perf_counter()
        shard_sweeps.append(sharded(trace, StepRecorder()))
        shard_seconds += time.perf_counter() - start
        _compare(result, "sharded sweep", expected[index], _step_payload(shard_sweeps[-1]))
    sweeps_run = count + 1
    if run.trace:
        tracer = Tracer()
        traced_serial = [StepRecorder(tracer=tracer) for _ in traces]
        traced_sharded = [StepRecorder(tracer=tracer) for _ in traces]
        traced_sweeps = []
        with patched_layers(tracer), collecting() as counters:
            start = time.perf_counter()
            for index, trace in enumerate(traces):
                for layer, sweep, recorded in (
                    ("runner", serial, traced_serial[index]),
                    ("sharded", sharded, traced_sharded[index]),
                ):
                    root = tracer.open("bench")
                    span = tracer.open(layer)
                    traced_sweeps.append((index, layer, sweep(trace, recorded)))
                    tracer.close(span)
                    tracer.close(root)
            traced_seconds = time.perf_counter() - start
        for index, layer, outcome in traced_sweeps:
            _compare(
                result, f"traced {layer} sweep", expected[index],
                _step_payload(outcome),
            )
            if layer == "sharded":
                shard_sweeps[index] = outcome
        sweeps_run += 2
        _layer_metrics(
            result, tracer, counters,
            sum(median(each) for each in sweep_seconds) + shard_seconds,
            traced_seconds,
        )
        body = [s for each in traced_serial for s in each.steps[1:]]
        shard_body = [s for each in traced_sharded for s in each.steps[1:]]
        shard_steps = [s for each in shard_sweeps for s in each]
        total_flips = sum(step.flip_count for trace in traces for step in trace.steps)
        redecided = sum(s.redecided for s in shard_steps)
        m = result.metrics
        m["graph.build_s"] = mean([each.steps[0].delta_seconds for each in traced_serial])
        m["graph.delta_ms"] = mean([s.delta_seconds * 1e3 for s in body])
        m["graph.flips_per_step"] = mean([s.flips for s in body])
        m["graph.dirty_per_step"] = mean([s.dirty for s in body])
        m["sharded.wait_ms"] = mean(
            [(s.seconds - s.delta_seconds) * 1e3 for s in shard_body]
        )
        m["sharded.handoff_ratio"] = (
            sum(s.handoff_redecides for s in shard_steps) / redecided
            if redecided else 0.0
        )
        m["sharded.flip_dup_ratio"] = (
            counters.shard_flips_applied / total_flips if total_flips else 0.0
        )
        m["sharded.parent_redecides"] = sum(s.parent_redecides for s in shard_steps)
        m["sharded.replica_nodes_max"] = counters.replica_nodes_max
        m["sharded.rehomes"] = counters.shard_rehomes
        m["sharded.workers_effective"] = max(
            1, max(each.children_seen for each in traced_sharded)
        )

    bad_steps = 0
    depths: List[int] = []
    radius = K + (scheme.metric_locality or 0)
    for index, (trace, reference) in enumerate(zip(traces, references)):
        for step_index, (snap, step) in enumerate(
            zip(trace.replay(extra_radii=(radius,)), reference)
        ):
            graph = snap.graph.topology
            bad_steps += not _backbone_ok(graph, step.forward)
            if step_index % LATENCY_EVERY == 0 and step_index:
                # Broadcasts from seeded sources, relayed by the forward set.
                rng = random.Random(
                    derive_seed(run.seed, "mobility", "sources", index, step_index)
                )
                for source in rng.sample(graph.nodes(), LATENCY_SOURCES):
                    reached = _relay_depths(graph, source, set(step.forward) | {source})
                    depths += [reached[v] for v in sorted(reached) if v != source]
    result.attempted = steps * len(traces) * sweeps_run
    result.failed = (
        result.attempted if not result.identical else bad_steps * sweeps_run
    )
    if not run.trace:
        # Step 0 of a sweep builds the base graph and decides every node;
        # the step samples are the later steps, each at its fastest sweep.
        best = [
            min(recorder.steps[i * steps + step].seconds for i in range(count))
            for recorder in recorders
            for step in range(1, steps)
        ]
        _op_metrics(
            result, n, len(best), sum(best),
            [seconds * 1e3 for seconds in best],
            depths,
            [len(step.forward) / n for reference in references for step in reference[1:]],
        )
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.details.update(
        sweeps=count,
        steps=steps,
        mean_flips=mean([step.flip_count for trace in traces for step in trace.steps]),
        mean_redecided=mean(
            [s.redecided for reference in references for s in reference[1:]]
        ),
        sweep_s=sweep_seconds,
        sharded_sweep_s=shard_seconds,
    )
    return result


RUNNERS = {
    "broadcast": run_broadcast_workload,
    "traffic": run_traffic_workload,
    "mobility": run_mobility_workload,
}


def run_workload(name: str, run: Run) -> Result:
    return RUNNERS[name](run)
