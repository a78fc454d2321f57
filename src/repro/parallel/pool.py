"""Thread-pool execution of schedule plans (the OpenMP stand-in).

NumPy kernels release the GIL for large array operations, so genuine
overlap occurs for box-sized work; at container scale this is a sanity
layer (results must stay bitwise identical under any interleaving), and
the quantitative scaling study runs on :mod:`repro.machine`.

The pool itself is a shared module-level executor, created once and
grown to the largest thread count ever requested — repeated
``run_plan`` calls measure the schedule, not ThreadPoolExecutor
startup.  A run at ``threads=k`` keeps at most ``k`` tasks in flight
(bounded-window submission), so the concurrency a caller asked for is
the concurrency it gets even when the shared pool is larger.  The pool
is shut down at interpreter exit and transparently rebuilt if someone
shut it down mid-session.

Failure handling (see docs/architecture.md, "Failure handling"):

* every task site is a fault-injection point (:mod:`repro.resilience`),
  checked only when a plan is active — the happy path pays one
  ``is not None``;
* a task that fails *before running* (an injected raise) is re-run
  inline after its barrier group drains — safe because no mutation
  happened;
* a task that fails for real makes the group cancel its outstanding
  futures, drain the in-flight window, and raise
  :class:`PlanExecutionError` carrying structured
  :class:`~repro.resilience.retry.TaskFailure` records — never a bare
  exception, never leaked futures;
* ``run_schedule_parallel`` catches that error and degrades: fresh
  ``phi1``, fresh plan, serial execution (plan tasks mutate ``phi1``
  in place, so recovery must restart from clean buffers);
* with a fault plan active, a post-run NaN/Inf watchdog scan
  quarantines corrupted results and triggers the same serial re-run.
"""

from __future__ import annotations

import atexit
import threading
import time
from contextlib import nullcontext
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..box.leveldata import LevelData
from ..obs import trace as _trace
from ..resilience import faults as _faults
from ..resilience.retry import TaskFailure
from ..schedules.base import Variant
from ..schedules.level import prepare_phi1
from ..stencil.operators import FACE_INTERP_GHOST
from ..util.arena import scratch_arena
from .partition import ParallelPlan, build_plan

__all__ = [
    "ParallelResult",
    "PlanExecutionError",
    "run_plan",
    "run_schedule_parallel",
    "get_shared_pool",
    "shared_pool_stats",
    "shutdown_shared_pool",
]


@dataclass
class ParallelResult:
    """Outcome of a threaded execution."""

    phi1: LevelData
    elapsed_s: float
    threads: int
    num_tasks: int
    num_barriers: int
    #: True when the pooled run failed and was re-run serially.
    degraded: bool = False
    #: Structured records of faults absorbed along the way.
    failures: list[TaskFailure] = field(default_factory=list)


class PlanExecutionError(RuntimeError):
    """A plan could not complete; carries per-task failure records."""

    def __init__(self, failures: list[TaskFailure]):
        first = failures[0].error if failures else ""
        super().__init__(f"{len(failures)} plan task(s) failed: {first}")
        self.failures = failures


_POOL: ThreadPoolExecutor | None = None
_POOL_SIZE = 0
_POOL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False
_INTERP_EXITING = False


def get_shared_pool(min_workers: int) -> ThreadPoolExecutor:
    """The module-level pool, grown to at least ``min_workers``.

    Growing replaces the executor (ThreadPoolExecutor cannot resize);
    the old one is drained and shut down.  A pool that was shut down
    mid-session (manually or by a test) is transparently rebuilt.
    Callers must not cache the returned pool across calls that could
    grow it.
    """
    global _POOL, _POOL_SIZE, _ATEXIT_REGISTERED
    if min_workers <= 0:
        raise ValueError("min_workers must be positive")
    old: ThreadPoolExecutor | None = None
    with _POOL_LOCK:
        if _INTERP_EXITING:
            raise RuntimeError("interpreter is exiting; no shared pool")
        if _POOL is None or _POOL_SIZE < min_workers:
            old = _POOL
            _POOL = ThreadPoolExecutor(
                max_workers=min_workers, thread_name_prefix="repro-sched"
            )
            _POOL_SIZE = min_workers
            if not _ATEXIT_REGISTERED:
                atexit.register(_atexit_shutdown)
                _ATEXIT_REGISTERED = True
        pool = _POOL
        size = _POOL_SIZE
    if old is not None:
        old.shutdown(wait=True)
    from ..obs.metrics import default_registry

    default_registry().gauge_set("pool.size", float(size))
    return pool


def shared_pool_stats() -> dict:
    """Size and thread liveness of the shared executor (for obs/serve).

    ``threads_alive`` counts the executor's worker threads that are
    still running — the serve layer's chaos soak asserts this returns
    to a sane value after a drill, i.e. nothing wedged the shared pool.
    """
    with _POOL_LOCK:
        pool, size = _POOL, _POOL_SIZE
    threads = getattr(pool, "_threads", ()) if pool is not None else ()
    return {
        "size": size,
        "alive": pool is not None,
        "threads_alive": sum(1 for t in threads if t.is_alive()),
    }


def shutdown_shared_pool() -> None:
    """Shut the shared pool down (idempotent; re-created on demand).

    Safe to call concurrently from several threads and from the
    ``atexit`` hook: the executor is detached under the lock, so
    exactly one caller joins it and the rest are no-ops — nothing
    relies on double-``shutdown`` being tolerated by executor
    internals.
    """
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        pool, _POOL, _POOL_SIZE = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _atexit_shutdown() -> None:
    global _INTERP_EXITING
    with _POOL_LOCK:
        _INTERP_EXITING = True
    shutdown_shared_pool()


def _wrap_faulty(task: Callable[[], None], index: int, label: str):
    """Fault-injection shim: perturbs *before* the task body runs."""

    def run() -> None:
        _faults.perturb("pool", index, label)
        task()

    return run


def _wrap_traced(task: Callable[[], None], index: int, label: str):
    """Tracing shim: each pooled task is a span on its worker's lane."""

    def run() -> None:
        with _trace.span("pool.task", index=index, label=label):
            task()

    return run


def _run_group_windowed(
    pool: ThreadPoolExecutor,
    tasks: Iterable[Callable[[], None]],
    width: int,
    *,
    label: str = "",
    task_base: int = 0,
    deadline_s: float | None = None,
    inject: bool = False,
    failures: list[TaskFailure] | None = None,
) -> int:
    """Run one barrier group keeping at most ``width`` tasks in flight.

    Joins fully before returning (the barrier).  On a task failure the
    outstanding window is cancelled (queued futures never run) and the
    started remainder drained — nothing leaks into the shared pool —
    then :class:`PlanExecutionError` is raised with one
    :class:`TaskFailure` per failed task.  Tasks that failed via an
    injected fault (which fires before the task body) are re-run
    inline after the drain; only real failures are fatal.  A task
    exceeding ``deadline_s`` abandons the group the same way (the
    wedged future cannot be interrupted, but its buffers are discarded
    by the caller's degradation path).
    """
    it = iter(tasks)
    pending: dict[Future, tuple[Callable[[], None], int, float]] = {}
    executed = 0
    index = task_base
    fatal: list[TaskFailure] = []
    retry_inline: list[tuple[Callable[[], None], int]] = []
    timed_out = False
    traced = _trace.tracing_enabled()
    while True:
        while not fatal and not timed_out and len(pending) < width:
            task = next(it, None)
            if task is None:
                break
            submitted = _wrap_faulty(task, index, label) if inject else task
            if traced:
                submitted = _wrap_traced(submitted, index, label)
            pending[pool.submit(submitted)] = (task, index, time.monotonic())
            index += 1
        if not pending:
            break
        done, _ = wait(set(pending), timeout=deadline_s, return_when=FIRST_COMPLETED)
        now = time.monotonic()
        for f in done:
            task, i, _start = pending.pop(f)
            exc = f.exception()
            if exc is None:
                executed += 1
            elif isinstance(exc, _faults.FaultInjected):
                # Fired before the body: the task never ran, inline
                # re-execution after the drain is safe.
                retry_inline.append((task, i))
            else:
                fatal.append(
                    TaskFailure(
                        scope="pool", index=i, label=label,
                        kind="exception", error=repr(exc),
                    )
                )
        if deadline_s is not None and not done:
            overdue = [
                (task, i)
                for task, i, start in pending.values()
                if now - start > deadline_s
            ]
            if overdue:
                timed_out = True
                for task, i in overdue:
                    fatal.append(
                        TaskFailure(
                            scope="pool", index=i, label=label,
                            kind="timeout",
                            error=f"task exceeded deadline of {deadline_s}s",
                        )
                    )
        if fatal or timed_out:
            # Cancel everything not yet started; queued work never runs.
            for f in list(pending):
                if f.cancel():
                    pending.pop(f)
            if timed_out:
                # Wedged futures cannot be joined; abandon them (the
                # caller rebuilds phi1 before any recovery run).
                break
    for task, i in retry_inline:
        try:
            _trace.add_event(
                "pool.retry_inline", index=i, label=label, attempt=2
            )
            task()
            executed += 1
            if failures is not None:
                failures.append(
                    TaskFailure(
                        scope="pool", index=i, label=label, kind="injected",
                        error="injected fault; re-run inline", attempts=2,
                        recovered=True,
                    )
                )
        except Exception as exc:  # noqa: BLE001 - recorded, not leaked
            fatal.append(
                TaskFailure(
                    scope="pool", index=i, label=label,
                    kind="exception", error=repr(exc), attempts=2,
                )
            )
    if fatal:
        raise PlanExecutionError(fatal)
    return executed


def run_plan(
    plan: ParallelPlan,
    threads: int,
    arena: bool = True,
    deadline_s: float | None = None,
    failures: list[TaskFailure] | None = None,
) -> tuple[float, int]:
    """Execute a plan's barrier groups on the shared thread pool.

    Returns (elapsed seconds, tasks executed).  Each group joins fully
    before the next starts (the barrier).  Failures surface as
    :class:`PlanExecutionError` with structured records (``failures``,
    if given, additionally collects recovered injected faults).  With
    ``arena`` (default), executor scratch is pooled per worker thread
    for the duration of the run — results are bitwise identical either
    way.  ``deadline_s`` bounds each pooled task's wall time.
    """
    if threads <= 0:
        raise ValueError("threads must be positive")
    inject = _faults.plan_active()
    pool = get_shared_pool(threads) if threads > 1 else None
    executed = 0
    with scratch_arena() if arena else nullcontext(), _trace.span(
        "plan.run", threads=threads, groups=len(plan.groups)
    ):
        start = time.perf_counter()
        if pool is None:
            index = 0
            for group in plan.groups:
                with _trace.span(
                    "plan.phase", label=group.label, tasks=len(group.tasks)
                ):
                    for task in group.tasks:
                        if inject:
                            fault = _faults.take(
                                "pool", index, group.label,
                                modes=("raise", "stall"),
                            )
                            if fault is not None and fault.mode == "stall":
                                time.sleep(fault.stall_s)
                            elif fault is not None and failures is not None:
                                # Serially an injected raise *is* its own
                                # retry: nothing ran yet, so just run it.
                                failures.append(
                                    TaskFailure(
                                        scope="pool", index=index,
                                        label=group.label, kind="injected",
                                        error="injected fault; re-run inline",
                                        attempts=2, recovered=True,
                                    )
                                )
                        task()
                        executed += 1
                        index += 1
        else:
            base = 0
            for group in plan.groups:
                with _trace.span(
                    "plan.phase", label=group.label, tasks=len(group.tasks)
                ):
                    executed += _run_group_windowed(
                        pool,
                        group.tasks,
                        threads,
                        label=group.label,
                        task_base=base,
                        deadline_s=deadline_s,
                        inject=inject,
                        failures=failures,
                    )
                base += len(group.tasks)
        elapsed = time.perf_counter() - start
        if _trace.tracing_enabled():
            from ..util.perf import perf

            _trace.counter_sample("arena.hit_rate", perf().hit_rate("arena"))
    return elapsed, executed


def _scan_finite(phi1: LevelData) -> bool:
    for i in phi1.layout:
        box = phi1.layout.box(i)
        if not np.all(np.isfinite(phi1[i].window(box))):
            return False
    return True


def run_schedule_parallel(
    variant: Variant,
    phi0: LevelData,
    threads: int,
    arena: bool = True,
    fallback: bool = True,
    watchdog: bool = True,
) -> ParallelResult:
    """Run one schedule over a level with real threads.

    ``phi0`` needs the kernel's 2-ghost ring, exchanged.  The result is
    bitwise identical to :func:`repro.schedules.run_schedule_on_level`.

    Degradation ladder (``fallback=True``): a pooled plan that fails —
    a task exception, an unobtainable pool — is discarded wholesale and
    the schedule re-run serially on a fresh ``phi1`` (plan tasks mutate
    in place, so recovery restarts from clean buffers).  With a fault
    plan active and ``watchdog=True``, the result is additionally
    scanned for NaN/Inf and a corrupted run is quarantined and re-run
    the same way.  ``degraded``/``failures``
    on the result record what happened.
    """
    if phi0.ghost < FACE_INTERP_GHOST:
        raise ValueError(
            f"level needs ghost >= {FACE_INTERP_GHOST}, has {phi0.ghost}"
        )
    failures: list[TaskFailure] = []
    degraded = False

    def serial_rerun() -> tuple[LevelData, float, int, int]:
        phi1 = prepare_phi1(phi0)
        plan = build_plan(variant, phi0, phi1)
        elapsed, executed = run_plan(plan, 1, arena=arena)
        return phi1, elapsed, executed, len(plan.groups)

    with _trace.span(
        "schedule.run", variant=variant.short_name, threads=threads
    ) as sspan:
        phi1 = prepare_phi1(phi0)
        plan = build_plan(variant, phi0, phi1)
        try:
            elapsed, executed = run_plan(
                plan, threads, arena=arena, failures=failures,
            )
            barriers = len(plan.groups)
        except (PlanExecutionError, RuntimeError) as exc:
            if not fallback:
                raise
            if isinstance(exc, PlanExecutionError):
                failures.extend(exc.failures)
            else:
                failures.append(
                    TaskFailure(
                        scope="pool", index=None, label=variant.short_name,
                        kind="exception", error=repr(exc),
                    )
                )
            for f in failures:
                f.recovered = True
                f.degraded_to = "serial"
            sspan.event(
                "schedule.degraded", variant=variant.short_name,
                to="serial", failures=len(failures),
            )
            phi1, elapsed, executed, barriers = serial_rerun()
            degraded = True

        if _faults.plan_active():
            if _faults.take_corrupt("pool", None, variant.short_name):
                # Output-side corruption: poison one value, as a bad kernel
                # or a flipped bit would.  The watchdog below must catch it.
                i0 = next(iter(phi1.layout))
                phi1[i0].window(phi1.layout.box(i0)).flat[0] = np.nan
            if watchdog and not _scan_finite(phi1):
                failures.append(
                    TaskFailure(
                        scope="pool", index=None, label=variant.short_name,
                        kind="nonfinite", error="NaN/Inf in phi1; quarantined",
                        recovered=False,
                    )
                )
                sspan.event(
                    "schedule.quarantined", variant=variant.short_name,
                    kind="nonfinite",
                )
                if fallback:
                    phi1, elapsed, executed, barriers = serial_rerun()
                    degraded = True
                    if _scan_finite(phi1):
                        failures[-1].recovered = True
                        failures[-1].degraded_to = "serial"
                    else:
                        raise PlanExecutionError(failures)
                else:
                    raise PlanExecutionError(failures)

        sspan.set_attr(degraded=degraded, tasks=executed)
        return ParallelResult(
            phi1=phi1,
            elapsed_s=elapsed,
            threads=threads,
            num_tasks=executed,
            num_barriers=barriers,
            degraded=degraded,
            failures=failures,
        )
