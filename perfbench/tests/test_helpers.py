"""Unit tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import pytest

import repro.algorithms.generic as generic_module
import repro.experiments.runner as runner_module
from perfbench.measure import derive_seed, tail
from perfbench.probes import PATCH_POINTS, patched_layers
from perfbench.spans import Tracer, interval_union, layer_totals, self_times
from perfbench.workloads import Result, Run, _layer_metrics, first_divergence, run_workload
from repro.instrument import InstrumentationCounters


def test_p90_needs_ten_samples_beyond_it():
    value, ok = tail(list(range(100)), 90)
    assert ok and value == pytest.approx(89.1)
    assert tail(list(range(99)), 90)[1] is False
    assert tail(list(range(200)), 95)[1] is True
    assert tail(list(range(199)), 95)[1] is False
    assert tail([5.0], 50) == (5.0, False)


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_with_nested_children_adds_up_to_the_wall():
    spans = [
        _span("bench", 0.0, 10.0, -1),
        _span("service", 1.0, 7.0, 0),
        _span("algorithms", 2.0, 5.0, 1),
        _span("coverage", 3.0, 4.0, 2),
        _span("mac", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.0]
    seconds, calls = layer_totals(spans)
    # nested spans: the self times add up to the root's duration
    assert sum(seconds.values()) == pytest.approx(10.0)
    assert calls == {"bench": 1, "service": 1, "algorithms": 1, "coverage": 1, "mac": 1}


def test_self_time_with_overlapping_children_subtracts_their_union():
    spans = [
        _span("bench", 0.0, 10.0, -1),
        _span("views", 1.0, 4.0, 0),
        _span("coverage", 3.0, 6.0, 0),
        # sticks out past its parent: only the overlap counts
        _span("graph", 9.0, 12.0, 0),
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0]
    assert all(value >= 0 for value in self_times(spans))
    assert interval_union([(1, 4), (3, 6), (9, 12)], 0, 10) == 6.0
    assert interval_union([], 0, 10) == 0.0


def test_tracer_records_parents_and_ops():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 7
    outer = tracer.open("bench")
    wrapped = tracer.wrap("coverage", lambda x: x * 2)
    assert wrapped(21) == 42
    tracer.close(outer)
    assert tracer.spans() == [
        ("bench", 0.0, 3.0, -1, 7),
        ("coverage", 1.0, 2.0, 0, 7),
    ]
    with pytest.raises(RuntimeError):
        inner = tracer.open("a")
        tracer.open("b")
        tracer.close(inner)


def _traced_pass():
    """A pass of two root spans, 4 s in all, with a 1 s child."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    for op in range(2):
        root = tracer.open("bench")
        if op == 0:
            child = tracer.open("coverage")
            tracer.close(child)
        tracer.close(root)
    return tracer


def test_time_outside_every_span_fails_the_traced_run():
    # Spans cover 0-3 s and 5-6 s: 4 s of self time.
    covered = Result()
    _layer_metrics(covered, _traced_pass(), InstrumentationCounters(), 4.0, 4.0)
    assert covered.identical and not covered.flags
    assert covered.metrics["trace.uncovered_s"] == pytest.approx(0.0)
    assert covered.metrics["coverage.self_s"] == pytest.approx(1.0)
    assert covered.metrics["bench.self_s"] == pytest.approx(3.0)
    # A 6 s clock read around the pass leaves the 3-5 s gap uncovered.
    gap = Result()
    _layer_metrics(gap, _traced_pass(), InstrumentationCounters(), 4.0, 6.0)
    assert not gap.identical
    assert gap.metrics["trace.uncovered_s"] == pytest.approx(2.0)
    assert gap.metrics["trace.overhead_pct"] == pytest.approx(50.0)


def test_untraced_run_after_a_traced_one_sees_the_original_attributes():
    originals = [getattr(module, name) for module, name, _span in PATCH_POINTS]
    tracer = Tracer()
    with patched_layers(tracer):
        assert runner_module.local_view is not originals[0]
        assert generic_module.coverage_condition is not originals[2]
    assert [getattr(m, n) for m, n, _s in PATCH_POINTS] == originals

    traced = run_workload("mobility", Run(seed=3, seconds=0.2, trace=True, size="tiny"))
    assert [getattr(m, n) for m, n, _s in PATCH_POINTS] == originals
    spans_after_traced = len(traced.details["tracer"].names)
    untraced = run_workload("mobility", Run(seed=3, seconds=0.2, trace=False, size="tiny"))
    assert len(traced.details["tracer"].names) == spans_after_traced
    assert untraced.failed == 0 and untraced.identical
    assert "tracer" not in untraced.details


def test_patched_layers_restores_on_error():
    originals = [getattr(module, name) for module, name, _span in PATCH_POINTS]
    with pytest.raises(ValueError):
        with patched_layers(Tracer()):
            raise ValueError("boom")
    assert [getattr(m, n) for m, n, _s in PATCH_POINTS] == originals


def test_seeds_are_derived_deterministically_and_apart():
    assert derive_seed(1, "traffic", "stream") == derive_seed(1, "traffic", "stream")
    assert derive_seed(1, "traffic", "stream") != derive_seed(2, "traffic", "stream")
    assert derive_seed(1, "traffic", "stream") != derive_seed(1, "traffic", "rng")


def test_first_divergence_names_one_path():
    left = [{"step": 0, "forward": [1, 2]}, {"step": 1, "forward": [3]}]
    right = [{"step": 0, "forward": [1, 2]}, {"step": 1, "forward": [4]}]
    assert first_divergence(left, left) is None
    assert first_divergence(left, right) == "$[1].forward[0]: 3 != 4"
    assert first_divergence([1], [1, 2]) == "$: length 1 != 2"
