"""The sweep engine: shard seeded cells across worker processes.

``run_sweep`` expands a :class:`~repro.sweep.spec.SweepSpec` into cells
and executes them:

* **serial** (``workers=1``): cells run in-process, in index order --
  the reference execution the parallel path must reproduce;
* **parallel**: cells are submitted to a ``ProcessPoolExecutor``
  (worker count auto-detected from the CPU count unless overridden) and
  collected as they finish.  Results are keyed by cell index, so the
  aggregate is independent of completion order.

Fault tolerance, per cell:

* a scenario that **raises** inside a worker is retried up to
  ``spec.retries`` times with exponential backoff;
* a worker that **dies** (hard crash; the pool breaks) has the pool
  rebuilt; the crashing cell and any innocently in-flight cells each
  burn an attempt (the parent cannot tell which task killed the
  worker);
* a task that **exceeds** ``task_timeout_s`` (measured from submission)
  burns an attempt; if it was genuinely running, the pool is rebuilt to
  reclaim the seat, and still-queued siblings are resubmitted without
  burning their attempts.

A cell that exhausts its attempts is recorded in the aggregate's
``failed_cells`` -- the sweep never aborts and never drops a cell
silently.  Progress is mirrored into the :mod:`repro.obs` metrics
registry (``sweep_cells_total{status=...}``, ``sweep_retries_total``).
"""

from __future__ import annotations

import datetime as _datetime
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Mapping

from repro import obs
from repro.obs.aggregate import mergeable_snapshot
from repro.sweep.artifact import (
    CELL_FAILED,
    CELL_OK,
    ERROR_EXCEPTION,
    ERROR_TIMEOUT,
    ERROR_WORKER_CRASH,
    CellOutcome,
    SweepAggregate,
    completed_results,
)
from repro.errors import SweepError, SweepSpecError
from repro.scenarios import lookup
from repro.sweep.spec import SweepCell, SweepSpec

#: Longest the collection loop sleeps between bookkeeping passes.
_POLL_S = 0.05


def default_workers() -> int:
    """Worker count when the spec and CLI are silent: one per CPU."""
    return max(1, os.cpu_count() or 1)


def run_cell(scenario: str, params: Mapping, seed: int,
             attempt: int = 0) -> dict:
    """Run one cell's scenario from the registry.

    The derived cell seed is injected unless the spec pins one, and the
    attempt number reaches the scenarios that take one (``selftest``).
    """
    entry = lookup(scenario, SweepError)
    merged = dict(params)
    merged.setdefault("seed", seed)
    if entry.takes("attempt"):
        merged.setdefault("attempt", attempt)
    return entry.run(merged)


def _execute_cell(scenario: str, params: dict, seed: int,
                  attempt: int, telemetry: bool = False) -> dict:
    """Worker-side entry point; must stay module-level (picklable).

    With ``telemetry`` on, the cell runs in metrics-only observability
    mode (:func:`repro.obs.enable_metrics`: guarded counters and
    histograms record, trace events are dropped) and the payload gains
    a ``"telemetry"`` key carrying the worker registry frozen into the
    mergeable form of :func:`repro.obs.aggregate.mergeable_snapshot`.
    """
    start = time.perf_counter()
    if telemetry:
        obs.reset()
        obs.enable_metrics()
    try:
        result = run_cell(scenario, params, seed, attempt)
    finally:
        if telemetry:
            obs.disable()
    payload = {"result": _json_sanitize(result),
               "wall_time_s": time.perf_counter() - start}
    if telemetry:
        payload["telemetry"] = mergeable_snapshot(obs.METRICS)
        obs.METRICS.reset()
    return payload


def _json_sanitize(value):
    """Recursively null out non-finite floats so aggregates always dump."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(item) for item in value]
    return value


class _CellTracker:
    """Book-keeping for one cell across its attempts."""

    __slots__ = ("cell", "attempts_used", "outcome")

    def __init__(self, cell: SweepCell) -> None:
        self.cell = cell
        self.attempts_used = 0
        self.outcome: CellOutcome | None = None

    def succeed(self, payload: Mapping) -> CellOutcome:
        self.outcome = CellOutcome(
            index=self.cell.index, params=dict(self.cell.params),
            seed=self.cell.seed, status=CELL_OK,
            attempts=self.attempts_used,
            result=payload["result"],
            wall_time_s=float(payload["wall_time_s"]),
            telemetry=payload.get("telemetry"))
        return self.outcome

    def fail(self, error: str, error_kind: str) -> CellOutcome:
        self.outcome = CellOutcome(
            index=self.cell.index, params=dict(self.cell.params),
            seed=self.cell.seed, status=CELL_FAILED,
            attempts=self.attempts_used, result=None,
            error=error, error_kind=error_kind)
        return self.outcome


def run_sweep(spec: SweepSpec, *, workers: int | None = None,
              resume: Mapping | None = None,
              progress: Callable[[str], None] | None = None,
              telemetry: bool = False) -> SweepAggregate:
    """Run every cell of ``spec`` and aggregate the outcomes.

    ``workers`` overrides (in precedence order) the spec's ``workers``
    field and the CPU-count default.  ``resume`` is a previously saved
    aggregate dict (see :func:`repro.sweep.artifact.load_aggregate_dict`)
    whose ``ok`` cells are carried over instead of re-run; it must stem
    from a spec with the same fingerprint.  ``progress`` receives
    one-line status strings as cells finish.  ``telemetry`` runs every
    cell in metrics-only observability mode and merges the per-worker
    snapshots into the aggregate's sweep-wide ``telemetry`` block (see
    :mod:`repro.obs.aggregate`); virtual-time determinism makes the
    merged block identical across worker counts.
    """
    started = time.perf_counter()
    # Catch an unknown scenario before burning per-cell retries on it.
    lookup(spec.scenario, SweepSpecError)
    stamp = _datetime.datetime.now(_datetime.timezone.utc).isoformat(
        timespec="seconds")
    effective_workers = workers if workers is not None \
        else (spec.workers if spec.workers is not None else default_workers())
    if effective_workers < 1:
        effective_workers = 1

    cells = spec.cells()
    carried: dict[int, CellOutcome] = {}
    if resume is not None:
        carried = completed_results(spec, resume)
        if progress is not None and carried:
            progress(f"resume: carrying over {len(carried)} of "
                     f"{len(cells)} completed cell(s)")
    todo = [cell for cell in cells if cell.index not in carried]

    say = progress if progress is not None else (lambda message: None)
    if effective_workers == 1 or len(todo) <= 1:
        outcomes = _run_serial(spec, todo, say, telemetry)
    else:
        outcomes = _run_parallel(spec, todo, effective_workers, say,
                                 telemetry)

    outcomes.update(carried)
    ordered = [outcomes[cell.index] for cell in cells]
    return SweepAggregate(
        spec=spec,
        cells=ordered,
        workers=effective_workers,
        wall_time_s=time.perf_counter() - started,
        recorded_at=stamp,
    )


def _note_outcome(outcome: CellOutcome,
                  say: Callable[[str], None]) -> None:
    obs.count("sweep_cells_total", status=outcome.status)
    if outcome.ok:
        say(f"cell {outcome.index}: ok "
            f"({outcome.attempts} attempt(s), "
            f"{outcome.wall_time_s:.2f} s)")
    else:
        say(f"cell {outcome.index}: FAILED after {outcome.attempts} "
            f"attempt(s) [{outcome.error_kind}] {outcome.error}")


def _backoff_s(spec: SweepSpec, attempts_used: int) -> float:
    return spec.retry_backoff_s * (2 ** max(0, attempts_used - 1))


# -- serial ------------------------------------------------------------------

def _run_serial(spec: SweepSpec, todo: list[SweepCell],
                say: Callable[[str], None],
                telemetry: bool = False) -> dict[int, CellOutcome]:
    """The reference execution: index order, in-process, still retrying."""
    outcomes: dict[int, CellOutcome] = {}
    for cell in todo:
        tracker = _CellTracker(cell)
        while tracker.outcome is None:
            tracker.attempts_used += 1
            try:
                payload = _execute_cell(spec.scenario, dict(cell.params),
                                        cell.seed, tracker.attempts_used - 1,
                                        telemetry)
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                _retry_or_fail(spec, tracker,
                               f"{type(exc).__name__}: {exc}",
                               ERROR_EXCEPTION, say)
                if tracker.outcome is None:
                    time.sleep(_backoff_s(spec, tracker.attempts_used))
            else:
                _note_outcome(tracker.succeed(payload), say)
        outcomes[cell.index] = tracker.outcome
    return outcomes


def _retry_or_fail(spec: SweepSpec, tracker: _CellTracker, error: str,
                   error_kind: str, say: Callable[[str], None]) -> None:
    """Burn one failed attempt: either queue a retry or finalize."""
    if tracker.attempts_used <= spec.retries:
        obs.count("sweep_retries_total", kind=error_kind)
        say(f"cell {tracker.cell.index}: attempt "
            f"{tracker.attempts_used} failed [{error_kind}], retrying "
            f"({spec.retries - tracker.attempts_used + 1} left)")
    else:
        _note_outcome(tracker.fail(error, error_kind), say)


# -- parallel ----------------------------------------------------------------

class _Pool:
    """A rebuildable ProcessPoolExecutor wrapper.

    On worker crash or timeout the old executor is abandoned
    (``shutdown(wait=False, cancel_futures=True)``) and a fresh one
    built; abandoned futures are resubmitted by the caller.
    """

    def __init__(self, workers: int, telemetry: bool = False) -> None:
        self.workers = workers
        self.telemetry = telemetry
        self.executor = ProcessPoolExecutor(max_workers=workers)

    def submit(self, spec: SweepSpec, cell: SweepCell,
               attempt: int) -> Future:
        return self.executor.submit(_execute_cell, spec.scenario,
                                    dict(cell.params), cell.seed, attempt,
                                    self.telemetry)

    def rebuild(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.executor = ProcessPoolExecutor(max_workers=self.workers)

    def close(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)


def _run_parallel(spec: SweepSpec, todo: list[SweepCell], workers: int,
                  say: Callable[[str], None],
                  telemetry: bool = False) -> dict[int, CellOutcome]:
    outcomes: dict[int, CellOutcome] = {}
    trackers = {cell.index: _CellTracker(cell) for cell in todo}
    #: Cells waiting for (re)submission: (eligible_monotonic, index).
    queue: list[tuple[float, int]] = [(0.0, cell.index) for cell in todo]
    #: In-flight futures -> (index, submitted_monotonic).
    running: dict[Future, tuple[int, float]] = {}
    pool = _Pool(workers, telemetry)
    obs.gauge("sweep_workers", workers)

    def submit_ready() -> None:
        now = time.monotonic()
        remaining: list[tuple[float, int]] = []
        for eligible, index in sorted(queue):
            if eligible <= now:
                tracker = trackers[index]
                tracker.attempts_used += 1
                future = pool.submit(spec, tracker.cell,
                                     tracker.attempts_used - 1)
                running[future] = (index, now)
            else:
                remaining.append((eligible, index))
        queue[:] = remaining

    def queue_retry(index: int) -> None:
        eligible = time.monotonic() + _backoff_s(
            spec, trackers[index].attempts_used)
        queue.append((eligible, index))

    def handle_failure(index: int, error: str, error_kind: str) -> None:
        tracker = trackers[index]
        _retry_or_fail(spec, tracker, error, error_kind, say)
        if tracker.outcome is None:
            queue_retry(index)
        else:
            outcomes[index] = tracker.outcome

    try:
        while queue or running:
            submit_ready()
            if not running:
                # Everything eligible is backing off; sleep it out.
                pending = min(eligible for eligible, _ in queue)
                time.sleep(max(0.0, min(_POLL_S,
                                        pending - time.monotonic())))
                continue
            done, _ = futures_wait(list(running), timeout=_POLL_S,
                                   return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                index, _submitted = running.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    handle_failure(
                        index,
                        "worker process died (or a co-scheduled task "
                        "killed the pool)", ERROR_WORKER_CRASH)
                except Exception as exc:  # noqa: BLE001 - recorded below
                    handle_failure(index, f"{type(exc).__name__}: {exc}",
                                   ERROR_EXCEPTION)
                else:
                    outcome = trackers[index].succeed(payload)
                    outcomes[index] = outcome
                    _note_outcome(outcome, say)
            if broken:
                # The pool is dead: every other in-flight future is lost
                # with it.  Burn an attempt for each (the parent cannot
                # tell which task was the killer) and rebuild.
                for future, (index, _submitted) in list(running.items()):
                    handle_failure(
                        index,
                        "worker pool broke while this task was in flight",
                        ERROR_WORKER_CRASH)
                running.clear()
                pool.rebuild()
                continue
            if spec.task_timeout_s is not None:
                _reap_timeouts(spec, pool, running, handle_failure, queue,
                               trackers, say)
    finally:
        pool.close()
    return outcomes


def _reap_timeouts(spec: SweepSpec, pool: _Pool,
                   running: dict[Future, tuple[int, float]],
                   handle_failure: Callable[[int, str, str], None],
                   queue: list[tuple[float, int]],
                   trackers: dict[int, "_CellTracker"],
                   say: Callable[[str], None]) -> None:
    """Expire tasks over budget; rebuild the pool if one held a seat."""
    now = time.monotonic()
    overdue = [(future, index) for future, (index, submitted)
               in running.items()
               if now - submitted > spec.task_timeout_s]
    if not overdue:
        return
    hung = False
    for future, index in overdue:
        del running[future]
        if future.cancel():
            # Never started: give the attempt back and requeue as-is.
            trackers[index].attempts_used -= 1
            queue.append((now, index))
            continue
        hung = True
        handle_failure(
            index,
            f"task exceeded {spec.task_timeout_s:g} s budget",
            ERROR_TIMEOUT)
    if hung:
        # A genuinely running task blew its budget; its worker may be
        # hung, so rebuild the pool to reclaim the seat.  Queued
        # siblings were cancelled with it -- requeue them free of
        # charge.
        for future, (index, _submitted) in list(running.items()):
            trackers[index].attempts_used -= 1
            queue.append((now, index))
        running.clear()
        say("rebuilding worker pool after task timeout")
        pool.rebuild()
