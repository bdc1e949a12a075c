"""The point executor shared by every seeded sweep.

A sweep is a grid of mutually independent measurement points: the
figure harness measures ``(protocol, n, d)`` points under the paper's
90%-confidence ±1% stopping rule (:func:`repro.experiments.runner.
run_figure`), the traffic sweep ``(protocol, offered rate)`` points
(:func:`repro.experiments.traffic.run_traffic_sweep`).  Callers hand
:func:`run_points` an ordered list of picklable task tuples and a
measure function; the executor returns ``{task: DataPoint}`` and the
caller assembles its tables in spec order, so completion order never
leaks into results.  Three properties make the fan-out safe to use for
reproduction work:

* **Order-independent determinism** — every point seeds its own
  ``random.Random`` from a sha256 digest of its coordinates
  (:func:`repro.experiments.runner.point_seed`,
  :func:`repro.experiments.traffic.traffic_point_seed`), so the
  assembled :class:`~repro.metrics.results.ResultTable` is
  byte-identical at any worker count, including ``jobs=1``.
* **Crash recovery** — a point whose worker raises (or whose worker
  process dies, breaking the pool) is re-dispatched once, serially in
  the parent; a second failure surfaces as the caller's structured
  failure (:class:`PointFailure` for figures), chained to the retry's
  exception and carrying the worker's traceback.
* **Pickle-safe progress** — workers only ship ``(task, DataPoint)``
  tuples of plain ints and floats back to the parent; the parent renders
  progress messages and invokes the (unpicklable) callback itself.
  Instrumentation counters ride inside each shipped ``DataPoint`` as a
  plain dict, collected per point in whichever process measured it —
  merging per-point counters therefore gives exactly the serial totals
  at any worker count.

Worker processes are created with the ``fork`` start method: the
measure function is installed by the pool initializer and inherited,
never pickled, so it may close over lambda protocol factories.  On
platforms without ``fork`` the executor degrades to the serial loop
(reporting so through the progress callback) rather than failing.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..metrics.results import DataPoint

__all__ = ["PointFailure", "fork_context", "run_points"]

Task = TypeVar("Task", bound=Hashable)


class PointFailure(RuntimeError):
    """A figure point failed twice (original dispatch plus one retry).

    Carries enough structure to re-run the point by hand; the underlying
    exception is chained as ``__cause__`` and its traceback preserved in
    :attr:`worker_traceback`.
    """

    def __init__(
        self,
        panel_title: str,
        label: str,
        n: int,
        degree: float,
        worker_traceback: str,
    ) -> None:
        super().__init__(
            f"point ({label}, n={n}, d={degree:g}) of panel "
            f"{panel_title!r} failed after retry"
        )
        self.panel_title = panel_title
        self.label = label
        self.n = n
        self.degree = degree
        self.worker_traceback = worker_traceback


# Worker-side measure function, installed by the pool initializer.
# Under the fork start method the initializer arguments are inherited,
# never pickled, so the function may close over lambdas.
_WORKER_MEASURE: Optional[Callable[[Hashable], DataPoint]] = None


def _init_worker(measure: Callable[[Hashable], DataPoint]) -> None:
    global _WORKER_MEASURE
    _WORKER_MEASURE = measure


def _worker_measure(task: Hashable) -> Tuple[Hashable, DataPoint]:
    assert _WORKER_MEASURE is not None
    return task, _WORKER_MEASURE(task)


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` on platforms
    without it (callers then degrade to an in-process path)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def run_points(
    tasks: Sequence[Task],
    measure: Callable[[Task], DataPoint],
    jobs: int,
    describe: Callable[[Task, DataPoint], str],
    failure: Callable[[Task, str], Exception],
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[Task, DataPoint]:
    """Measure every task, over ``jobs`` fork workers when ``jobs > 1``.

    ``describe(task, point)`` renders a finished point's progress line
    (in the parent); ``failure(task, worker_traceback)`` builds the
    exception raised when a point fails in a worker and again on its
    serial re-dispatch.  Without a pool (``jobs == 1``, or no ``fork``)
    points run in task order and a point's own exception propagates
    unchanged.
    """
    results: Dict[Task, DataPoint] = {}

    def report(task: Task, point: DataPoint, suffix: str = "") -> None:
        results[task] = point
        if progress is not None:
            progress(describe(task, point) + suffix)

    context = fork_context() if jobs > 1 else None
    if context is None:
        if jobs > 1 and progress is not None:
            progress("fork start method unavailable; running points serially")
        for task in tasks:
            report(task, measure(task))
        return results

    failed_once: List[Tuple[Task, BaseException]] = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)) or 1,
        mp_context=context,
        initializer=_init_worker,
        initargs=(measure,),
    ) as pool:
        pending = {pool.submit(_worker_measure, task): task for task in tasks}
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                error = future.exception()
                if error is not None:
                    # First failure (including a broken pool, which fails
                    # every pending future): queue the single retry.
                    failed_once.append((task, error))
                    continue
                report(*future.result())
    for task, error in failed_once:
        try:
            point = measure(task)
        except Exception as exc:
            raise failure(
                task,
                "".join(
                    traceback.format_exception(
                        type(error), error, error.__traceback__
                    )
                ),
            ) from exc
        report(task, point, " [re-dispatched]")
    return results
