"""Retry budgets, backoff, deadlines, and structured failure records.

:class:`RetryPolicy` is the knob bundle the execution layers share:
attempt budget, exponential backoff with *deterministic* jitter (a
pure function of the attempt number and a caller salt, so reruns sleep
the same schedule), and an optional per-attempt deadline.

Failures are never bare exceptions crossing layer boundaries: they are
:class:`TaskFailure` records — scope, index, label, kind, attempts,
whether the task eventually recovered and through which degradation —
collected into manifests by :func:`repro.bench.runner.run_grid` and
:class:`repro.parallel.pool.PlanExecutionError`.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable

__all__ = [
    "RetryPolicy",
    "DEFAULT_POLICY",
    "NO_RETRY",
    "TaskFailure",
    "RetryExhausted",
    "DeadlineExceeded",
    "CorruptionError",
    "WorkerLost",
    "RemoteTaskError",
    "PROCESS_FAILURE_KINDS",
    "RETRY_BUDGET_KIND",
    "classify_failure",
    "call_with_retry",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline knobs for one execution layer."""

    #: Total attempts (1 = no retry).
    max_attempts: int = 3
    #: First backoff sleep; doubles each further attempt.
    base_delay_s: float = 0.005
    max_delay_s: float = 0.25
    #: Fraction of the delay randomized (deterministically) around 1.
    jitter: float = 0.5
    #: Per-attempt deadline; None disables timeout handling.
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int, salt: int = 0) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered.

        Deterministic: the jitter factor is a hash of ``(attempt,
        salt)``, so identical reruns sleep identically.
        """
        d = min(self.max_delay_s, self.base_delay_s * 2.0 ** attempt)
        if self.jitter:
            h = zlib.crc32(f"{salt}:{attempt}".encode()) % 10_000 / 10_000.0
            d *= 1.0 - self.jitter / 2.0 + self.jitter * h
        return d


DEFAULT_POLICY = RetryPolicy()
NO_RETRY = RetryPolicy(max_attempts=1, jitter=0.0)


@dataclass
class TaskFailure:
    """One task's failure (or recovery), as data rather than a raise."""

    scope: str
    index: int | None
    label: str
    #: "exception" | "injected" | "timeout" | "deadline" | "cancelled"
    #: | "corruption" | "nonfinite" | "divergent" | "worker_lost"
    #: | "signal_exit"
    kind: str
    error: str = ""
    attempts: int = 1
    #: True when a retry or a degradation eventually produced a result.
    recovered: bool = False
    #: How the work was degraded to recover: "serial", "estimate", None.
    degraded_to: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class RetryExhausted(RuntimeError):
    """A retried call ran out of attempts; carries the failure trail."""

    def __init__(self, failures: list[TaskFailure]):
        last = failures[-1].error if failures else ""
        super().__init__(
            f"retry budget exhausted after {len(failures)} attempt(s): {last}"
        )
        self.failures = failures


class DeadlineExceeded(TimeoutError):
    """A task overran a propagated deadline (distinct from a bare timeout).

    Subclasses :class:`TimeoutError` so pre-existing ``except
    TimeoutError`` handlers keep working, but classifies as
    ``"deadline"`` so breaker-trip logic and failure manifests can tell
    "the work was slow" from "the caller's budget expired".
    """

    def __init__(self, message: str, deadline_s: float | None = None):
        super().__init__(message)
        self.deadline_s = deadline_s


class CorruptionError(RuntimeError):
    """A result failed a post-hoc integrity check (NaN/Inf, bad payload).

    Raised by consumers of the numerical watchdog when a *completed*
    task's output is unusable — the work ran, the answer is poison —
    so it classifies as ``"corruption"`` rather than ``"exception"``.
    """


class WorkerLost(RuntimeError):
    """A worker *process* died underneath a task (the process-level kind).

    Distinct from every compute fault: the task itself may be perfectly
    healthy — the shard hosting it was SIGKILLed, OOM-killed, or
    segfaulted.  Classifies as ``"signal_exit"`` when the death is
    attributable to a signal (negative exit code), ``"worker_lost"``
    otherwise (broken pipe, vanished heartbeat, unexplained exit), so
    breaker and degradation routing can treat shard death as a
    lease-recovery event rather than an engine failure.
    """

    def __init__(
        self,
        message: str,
        shard: str = "",
        signal: int | None = None,
        exitcode: int | None = None,
    ):
        super().__init__(message)
        self.shard = shard
        self.signal = signal
        self.exitcode = exitcode


class RemoteTaskError(RuntimeError):
    """A task failed *inside* a worker process; re-raised in the parent.

    The child classifies its own exception (:func:`classify_failure`)
    and ships ``(kind, error)`` over the result pipe — exceptions never
    cross the process boundary as pickles.  The parent-side re-raise
    preserves the original classification, so an injected fault in a
    shard still counts as ``"injected"``, a child-side NaN as
    ``"corruption"``, and so on.
    """

    def __init__(self, kind: str, error: str):
        super().__init__(f"remote task failed ({kind}): {error}")
        self.kind = kind
        self.error = error


#: Failure kinds meaning "the hosting process died", not "the work is
#: bad" — the serve layer re-queues these instead of tripping breakers.
PROCESS_FAILURE_KINDS = ("worker_lost", "signal_exit")

#: The distinct kind recorded when a retry is *denied* by an exhausted
#: :class:`~repro.serve.adaptive.RetryBudget`.  A load signal, not an
#: engine fault: exempt from circuit-breaker counting.
RETRY_BUDGET_KIND = "retry_budget"


def classify_failure(exc: BaseException) -> str:
    """Map an exception to a stable :class:`TaskFailure` ``kind``.

    Order matters: the specific kinds (``injected``, ``deadline``,
    ``cancelled``, ``corruption``) are carved out *before* their base
    classes so the legacy classifications (``timeout`` for a bare
    :class:`TimeoutError`, ``exception`` for everything else) are
    unchanged for callers that predate them.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    from .faults import FaultInjected

    if isinstance(exc, FaultInjected):
        return "injected"
    if isinstance(exc, RemoteTaskError):
        return exc.kind
    if isinstance(exc, WorkerLost):
        return "signal_exit" if exc.signal else "worker_lost"
    if isinstance(exc, BrokenProcessPool):
        return "worker_lost"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, concurrent.futures.CancelledError):
        return "cancelled"
    if isinstance(exc, CorruptionError):
        return "corruption"
    return "exception"


#: Backwards-compatible alias (the private name predates the serve layer).
_classify = classify_failure


def call_with_retry(
    fn: Callable[[], object],
    policy: RetryPolicy = DEFAULT_POLICY,
    *,
    scope: str = "task",
    index: int | None = None,
    label: str = "",
    sleep: Callable[[float], None] = time.sleep,
    deadline_at: float | None = None,
    clock: Callable[[], float] = time.monotonic,
    budget=None,
) -> tuple[object, list[TaskFailure]]:
    """Call ``fn`` under the policy's attempt budget.

    Returns ``(result, failures)`` where ``failures`` records the
    attempts that had to be retried (marked ``recovered=True``).
    Raises :class:`RetryExhausted` when the budget runs out.

    ``deadline_at`` (on ``clock``'s timeline) caps every backoff sleep
    at the remaining deadline budget: when the backoff would consume
    what is left — so the next attempt could not possibly fit — the
    call fails *fast* with a final ``"deadline"``-kind failure instead
    of sleeping through a deadline that has already lost.

    ``budget`` is an optional retry budget (anything with ``deposit()``
    and ``try_spend() -> bool``, e.g. :class:`~repro.serve.adaptive
    .RetryBudget`): one deposit is banked for the call, and every retry
    must afford a token — a denied retry fails with the distinct kind
    :data:`RETRY_BUDGET_KIND`, which bounds global attempt
    amplification under synchronized failure storms.
    """
    from ..obs import trace as _trace

    if budget is not None:
        budget.deposit()
    failures: list[TaskFailure] = []
    salt = index if index is not None else zlib.crc32(label.encode())
    for attempt in range(policy.max_attempts):
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the whole point
            failures.append(
                TaskFailure(
                    scope=scope,
                    index=index,
                    label=label,
                    kind=_classify(exc),
                    error=repr(exc),
                    attempts=attempt + 1,
                )
            )
            if attempt + 1 >= policy.max_attempts:
                _trace.add_event(
                    "retry.exhausted", scope=scope, index=index,
                    label=label, attempts=attempt + 1,
                )
                raise RetryExhausted(failures) from exc
            delay = policy.delay_s(attempt, salt=salt)
            if deadline_at is not None:
                remaining = deadline_at - clock()
                if remaining <= delay:
                    # Sleeping the backoff would eat the whole budget:
                    # no further attempt can fit, so fail fast instead
                    # of burning wall time on a lost cause.
                    failures.append(TaskFailure(
                        scope=scope, index=index, label=label,
                        kind="deadline",
                        error=(
                            f"backoff of {delay:.4f}s cannot fit the "
                            f"remaining deadline budget of "
                            f"{max(0.0, remaining):.4f}s"
                        ),
                        attempts=attempt + 1,
                    ))
                    _trace.add_event(
                        "retry.deadline_fast_fail", scope=scope,
                        index=index, label=label, attempt=attempt + 1,
                        delay_s=delay, remaining_s=remaining,
                    )
                    raise RetryExhausted(failures) from exc
            if budget is not None and not budget.try_spend():
                failures.append(TaskFailure(
                    scope=scope, index=index, label=label,
                    kind=RETRY_BUDGET_KIND,
                    error="retry denied: scope retry budget exhausted",
                    attempts=attempt + 1,
                ))
                _trace.add_event(
                    "retry.budget_denied", scope=scope, index=index,
                    label=label, attempt=attempt + 1,
                )
                raise RetryExhausted(failures) from exc
            _trace.add_event(
                "retry.backoff", scope=scope, index=index, label=label,
                attempt=attempt + 1, kind=_classify(exc), delay_s=delay,
            )
            sleep(delay)
            continue
        for f in failures:
            f.recovered = True
        return result, failures
    raise RetryExhausted(failures)  # pragma: no cover - loop always returns
