"""The overload-safe job service fronting the repro workloads.

:class:`JobService` is a long-running execution-control plane around
the existing engines — simulate, estimate, grid sweeps, cluster steps —
that *fails closed* under load (see ``docs/resilience.md``):

* **Admission control** — every :meth:`JobService.submit` passes three
  deterministic gates: service liveness, the byte budget
  (:class:`~repro.serve.budget.ByteBudget`), and the bounded priority
  queue.  Work refused at any gate settles immediately as a structured
  ``shed`` outcome carrying :class:`Rejected` — nothing ever queues
  forever.
* **Deadline propagation** — a job's relative deadline is fixed at
  submit time; expired jobs are shed at dequeue without running, and
  the remaining budget is propagated into the engine retry policy for
  work that does run.
* **Circuit breakers** — each ``(machine, engine)`` pair is guarded by
  a :class:`~repro.serve.breaker.CircuitBreaker` that trips on
  :class:`~repro.resilience.retry.TaskFailure` streaks and routes
  tripped traffic down the degradation ladder: simulate -> estimate.
  Repeats of a config that already ran are served earlier, from the
  memo store, before the ladder is reached.
* **Worker supervision** — workers are dedicated threads (never the
  shared schedule pool, so a wedged job cannot poison it) stamping
  :class:`~repro.resilience.watchdog.Heartbeat` records; a supervisor
  thread abandons any task over the hang budget, settles it as failed,
  retires the worker, and spawns a replacement.
* **Process isolation** (``shards=N``) — point jobs execute in
  supervised child processes (:class:`~repro.serve.shards.ShardPool`)
  behind the same front: a shard that segfaults, OOMs, or is
  SIGKILLed takes down only itself; its leased job raises
  ``worker_lost``, is re-queued on the replacement by the retry
  budget, or walks the same degradation ladder.  With a
  :class:`~repro.resilience.journal.WALJournal` attached, every lease
  and every settle is durable — ticket state is reconstructible from
  the log alone after a supervisor crash.

* **Memoization + coalescing** (``memo=...``) — every job kind has a
  canonical content hash
  (:func:`~repro.serve.memo.canonical_job_key`); a
  :class:`~repro.serve.memo.MemoStore` settles repeat configs from
  cache bitwise-identically to cold execution, and the single-flight
  table (always on — hedges launch from it) guarantees at most one
  live execution per key: duplicate jobs arriving while a leader
  executes park as waiters and settle ``coalesced`` from the leader's
  result.  Waiters keep their own deadlines (an expired waiter sheds
  without touching the leader), and a failed or shed leader *promotes*
  the next waiter instead of failing the fan-out.

* **Adaptive overload control** (``adaptive=...``) — an AIMD
  concurrency limiter between the queue and the workers driven by
  observed service time vs. per-kind latency SLOs, per-(machine,
  engine) retry budgets bounding attempt amplification at
  ``units * (1 + ratio)``, hedged requests for stragglers past the
  observed p95 (through the single-flight table, settle-once
  preserved), and deadline-aware brownout shedding at admission.  See
  :mod:`repro.serve.adaptive`.

Accounting is exact and is the chaos soak's core invariant: every
submitted job settles exactly once as accepted, shed, degraded,
failed, or coalesced —
``accepted + shed + degraded + failed + coalesced == submitted``.
Hedge tickets are internal and never enter the buckets; their own
ledger closes exactly too: ``hedges_launched == hedges_won +
hedges_lost`` once the service drains.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable

from ..bench.runner import (
    GridPoint,
    GridResult,
    record_point_metrics,
    run_grid,
    span_attrs,
)
from ..cluster.nodegraph import rank_workload_cells
from ..cluster.scaling import ClusterPoint, assemble_step
from ..machine.simulator import SimResult
from ..obs import trace as _trace
from ..obs.metrics import default_registry
from ..parallel.pool import shared_pool_stats
from ..resilience import faults as _faults
from ..resilience.journal import WALJournal, grid_hash, point_key
from ..resilience.retry import (
    PROCESS_FAILURE_KINDS,
    RETRY_BUDGET_KIND,
    CorruptionError,
    DeadlineExceeded,
    RetryExhausted,
    RetryPolicy,
    TaskFailure,
    WorkerLost,
    call_with_retry,
    classify_failure,
)
from ..resilience.watchdog import HeartbeatMonitor, is_finite_result
from ..util.perf import publish_cache_gauges
from .adaptive import AdaptiveConfig, AdaptiveLimiter, LatencyTracker, RetryBudget
from .breaker import STATE_CODES, CircuitBreaker
from .budget import ByteBudget
from .memo import MemoStore, canonical_job_key
from .queue import BoundedPriorityQueue
from .shards import ShardOverBudget, ShardPool

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "Rejected",
    "JobOutcome",
    "JobTicket",
    "JobService",
    "serve_grid",
]

#: Work the service knows how to execute.
JOB_KINDS = ("estimate", "simulate", "grid", "cluster")

#: Outcome statuses (the five accounting buckets).
STATUSES = ("ok", "shed", "degraded", "failed", "coalesced")

#: Default engine retry policy: one fast retry, bounded backoff.
DEFAULT_SERVE_POLICY = RetryPolicy(
    max_attempts=2, base_delay_s=0.001, max_delay_s=0.02
)


@dataclass(frozen=True)
class JobSpec:
    """One request: what to run, how urgent, and its time budget."""

    kind: str
    payload: object
    priority: int = 0
    #: Relative deadline from submit; None inherits the service default.
    deadline_s: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; use {JOB_KINDS}")


@dataclass(frozen=True)
class Rejected:
    """Structured admission rejection (the ``shed`` outcome's value)."""

    reason: str  # "queue_full" | "byte_budget" | "deadline" | "shutdown"
    detail: str = ""


@dataclass
class JobOutcome:
    """How one job settled — exactly one per submitted job."""

    status: str  # "ok" | "shed" | "degraded" | "failed" | "coalesced"
    value: object = None
    reason: str = ""
    degraded_to: str | None = None  # "estimate" | "serial" (grids) | None
    failures: list[TaskFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: True when the value was replayed from the memo store (an ``ok``
    #: outcome bitwise-identical to the cold execution it replaced).
    cached: bool = False

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "degraded_to": self.degraded_to,
            "failures": [f.to_dict() for f in self.failures],
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
        }


class JobTicket:
    """Caller's handle to one submitted job; settles exactly once."""

    def __init__(self, seq: int, spec: JobSpec, deadline_at: float | None):
        self.seq = seq
        self.spec = spec
        self.deadline_at = deadline_at
        self.label = spec.label or f"{spec.kind}[{seq}]"
        #: Canonical content hash, stamped at dequeue (None until then,
        #: and stays None for payloads with no canonical encoding).
        self.memo_key: str | None = None
        #: Set on internal hedge tickets: the submitted ticket this
        #: speculative duplicate races.  Hedge tickets never enter the
        #: accounting buckets — their outcome settles the primary (or
        #: is discarded as ``hedge_lost``).
        self.hedge_of: "JobTicket | None" = None
        self._settled = threading.Event()
        self._lock = threading.Lock()
        self._outcome: JobOutcome | None = None

    def done(self) -> bool:
        return self._settled.is_set()

    def result(self, timeout: float | None = None) -> JobOutcome:
        """The settled outcome, blocking up to ``timeout``."""
        if not self._settled.wait(timeout=timeout):
            raise TimeoutError(
                f"job {self.label!r} not settled within {timeout}s"
            )
        assert self._outcome is not None
        return self._outcome

    def _claim(self, outcome: JobOutcome) -> bool:
        """First settler wins; later results are discarded.

        Claiming does not wake ``result()``: the winner records the
        settle first, then calls :meth:`_wake`.
        """
        with self._lock:
            if self._outcome is not None:
                return False
            self._outcome = outcome
        return True

    def _wake(self) -> None:
        self._settled.set()


class _ShedJob(BaseException):
    """Internal signal: settle the current job as ``shed``, not failed.

    Subclasses :class:`BaseException` deliberately so it passes through
    ``call_with_retry``'s ``except Exception`` (no retry budget spent on
    a decision that is already final) and past ``_run_job``'s broad
    ``except Exception``, to be caught by name beside it.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"shed({reason}): {detail}")
        self.reason = reason
        self.detail = detail


class _Flight:
    """One in-flight canonical key: the executing leader + its waiters.

    ``executing`` is True only while the leader's worker is actually
    running the job — the window between a failed leader's settle and
    its promoted successor's re-dequeue has no live execution, which is
    exactly what the single-flight invariant (``max_live_per_key <=
    1``) measures.
    """

    __slots__ = (
        "key", "leader", "waiters", "executing", "exec_started_at",
        "hedge", "hedged",
    )

    def __init__(self, key: str, leader: "JobTicket"):
        self.key = key
        self.leader = leader
        self.waiters: list[JobTicket] = []
        self.executing = False
        #: Service-clock time the leader's execution started (the
        #: hedging sweep compares this against the kind's p95).
        self.exec_started_at: float | None = None
        #: The live hedge ticket, if one was launched for this flight.
        self.hedge: "JobTicket | None" = None
        #: True once a hedge has ever been launched — one per flight.
        self.hedged = False


class _Worker:
    """One dedicated worker thread's bookkeeping."""

    __slots__ = ("name", "thread", "hb", "retired", "current_job")

    def __init__(self, name: str):
        self.name = name
        self.thread: threading.Thread | None = None
        self.hb = None
        self.retired = False
        self.current_job: JobTicket | None = None


class JobService:
    """Bounded, breaker-guarded, supervised job execution."""

    def __init__(
        self,
        workers: int = 2,
        queue_limit: int = 64,
        byte_budget: ByteBudget | int | None = None,
        default_deadline_s: float | None = None,
        retry_policy: RetryPolicy = DEFAULT_SERVE_POLICY,
        breaker_threshold: int = 3,
        breaker_recovery_after: int = 4,
        breaker_probe_jitter: int = 3,
        seed: int = 0,
        hang_timeout_s: float = 30.0,
        supervise_interval_s: float = 0.05,
        shards: int = 0,
        wal: WALJournal | str | None = None,
        shard_faults: dict | None = None,
        shard_byte_budget: int | None = None,
        memo: MemoStore | str | bool | None = None,
        memo_limit_bytes: int | None = None,
        adaptive: AdaptiveConfig | bool | None = None,
        clock=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if default_deadline_s is not None and default_deadline_s < 0:
            raise ValueError(
                f"default_deadline_s must be >= 0, got {default_deadline_s}"
            )
        self.num_workers = int(workers)
        if isinstance(byte_budget, int):
            byte_budget = ByteBudget(byte_budget)
        self.budget = byte_budget
        self.default_deadline_s = default_deadline_s
        self.retry_policy = retry_policy
        self.seed = int(seed)
        self.hang_timeout_s = float(hang_timeout_s)
        self.supervise_interval_s = float(supervise_interval_s)
        # Process isolation: shards=N routes point jobs through a
        # supervised multi-process ShardPool; the WAL (an instance or a
        # path) makes every lease and settle durable.
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        self.num_shards = int(shards)
        self._owns_wal = isinstance(wal, str)
        self.wal = WALJournal(wal, resume=True) if isinstance(wal, str) else wal
        self.shard_faults = shard_faults
        self.shard_byte_budget = shard_byte_budget
        self._shards: ShardPool | None = None
        # Content-addressed memoization + single-flight coalescing.
        # ``memo`` accepts a live store, a path (owned persistent
        # store), or True (owned in-memory store).  ``clock`` is the
        # monotonic time source for every deadline decision — tests
        # inject a fake to drive waiter expiry deterministically.
        self._owns_memo = isinstance(memo, (str, bool))
        if memo_limit_bytes is not None and (
            not self._owns_memo or memo is False
        ):
            raise ValueError(
                "memo_limit_bytes needs memo=True or a path: it sizes the "
                "store the service creates, not a live MemoStore or none"
            )
        if isinstance(memo, str):
            memo = MemoStore(path=memo, limit_bytes=memo_limit_bytes)
        elif memo is True:
            memo = MemoStore(limit_bytes=memo_limit_bytes)
        elif memo is False:
            memo = None
        self._memo: MemoStore | None = memo
        self._clock = clock if clock is not None else time.monotonic
        # Adaptive overload control: AIMD concurrency limiting between
        # the queue and the workers, per-kind latency tracking feeding
        # brownout admission + hedging, and per-(machine, engine) retry
        # budgets bounding attempt amplification.
        if adaptive is True:
            adaptive = AdaptiveConfig()
        elif adaptive is False:
            adaptive = None
        self._adaptive: AdaptiveConfig | None = adaptive
        self._latency: LatencyTracker | None = None
        self._limiter: AdaptiveLimiter | None = None
        self._retry_budgets: dict[str, RetryBudget] = {}
        if adaptive is not None:
            self._latency = LatencyTracker(min_samples=adaptive.min_samples)
            self._limiter = AdaptiveLimiter(
                max_limit=adaptive.max_limit or self.num_workers,
                min_limit=adaptive.min_limit,
                increase=adaptive.increase,
                decrease=adaptive.decrease,
                cooldown_s=adaptive.cooldown_s,
                clock=self._clock,
                on_change=self._on_limit_change,
            )
        #: Execution-attempt accounting (the amplification invariant):
        #: ``attempts`` counts every engine attempt, ``attempt_units``
        #: first attempts of submitted (non-hedge) work units,
        #: ``hedge_attempts`` speculative hedge executions.
        self.attempts = 0
        self.attempt_units = 0
        self.hedge_attempts = 0
        self.hedges = {"launched": 0, "won": 0, "lost": 0, "denied": 0}
        self._flights: dict[str, _Flight] = {}
        self._live_keys: dict[str, int] = {}
        self.max_live_per_key = 0
        self.promotions = 0
        self._breaker_kw = dict(
            failure_threshold=breaker_threshold,
            recovery_after=breaker_recovery_after,
            probe_jitter=breaker_probe_jitter,
            seed=self.seed,
        )
        self._queue: BoundedPriorityQueue[JobTicket] = BoundedPriorityQueue(
            queue_limit
        )
        self._monitor = HeartbeatMonitor()
        self._registry = default_registry()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._worker_seq = itertools.count()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._active: dict[str, _Worker] = {}
        self._threads: list[threading.Thread] = []
        self._stop_event = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._started = False
        self._stopping = False
        # Exact accounting (the chaos invariants read these).
        self.counts = {"submitted": 0, "ok": 0, "shed": 0, "degraded": 0,
                       "failed": 0, "coalesced": 0}
        self.shed_reasons: dict[str, int] = {}
        self.degraded_to: dict[str, int] = {}
        self.workers_replaced = 0

    # --------------------------------------------------------------- lifecycle
    def start(self) -> "JobService":
        with self._lock:
            if self._started:
                return self
            self._started = True
        if self.num_shards > 0:
            self._shards = ShardPool(
                self.num_shards,
                wal=self.wal,
                byte_budget_bytes=self.shard_byte_budget,
                fault_params=self.shard_faults,
            ).start()
        for _ in range(self.num_workers):
            self._spawn_worker()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="serve-supervisor", daemon=True
        )
        self._supervisor.start()
        self._threads.append(self._supervisor)
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work and wind the service down.

        ``drain=True`` lets queued jobs run to completion; otherwise
        they are settled as shed (``shutdown``).  Worker threads are
        joined up to ``timeout`` — retired (abandoned) workers wake
        from their stall, discard their result, and exit on their own.
        """
        with self._lock:
            self._stopping = True
        if not drain:
            while True:
                job = self._queue.take(timeout=0)
                if job is None:
                    break
                self._shed(job, "shutdown", "service stopping")
        self._queue.close()
        deadline = time.monotonic() + timeout
        for t in list(self._threads):
            if t is self._supervisor:
                continue
            t.join(max(0.0, deadline - time.monotonic()))
        self._flush_flights()
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(max(0.0, deadline - time.monotonic()))
        if self._shards is not None:
            self._shards.stop()
        self._publish_gauges()
        publish_cache_gauges(self._registry)
        if self._owns_wal and self.wal is not None:
            self.wal.close()
        if self._owns_memo and self._memo is not None:
            self._memo.close()

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -------------------------------------------------------------- admission
    def submit(self, spec: JobSpec) -> JobTicket:
        """Admit (or immediately shed) one job; never blocks, never raises.

        The returned ticket is already settled when admission refused
        the work — callers always get a structured outcome.
        """
        seq = next(self._seq)
        now = self._clock()
        deadline_s = (
            spec.deadline_s if spec.deadline_s is not None
            else self.default_deadline_s
        )
        deadline_at = None if deadline_s is None else now + deadline_s
        ticket = JobTicket(seq, spec, deadline_at)
        with self._lock:
            self.counts["submitted"] += 1
            live = self._started and not self._stopping
        self._registry.counter_inc("serve.submitted")
        if not live:
            self._shed(ticket, "shutdown", "service not accepting work")
            return ticket
        if self.budget is not None:
            ok, current = self.budget.admits()
            if not ok:
                self._shed(
                    ticket, "byte_budget",
                    f"{current} bytes > limit {self.budget.limit_bytes}",
                )
                return ticket
        if (
            self._adaptive is not None
            and self._adaptive.brownout
            and deadline_at is not None
        ):
            # Deadline-aware brownout: a job whose remaining budget
            # cannot cover the *observed* service time for its kind
            # would only expire in the queue — refuse it at the door.
            need = self._latency.ewma_s(spec.kind)
            if need is not None:
                remaining = deadline_at - self._clock()
                if remaining < need:
                    self._registry.counter_inc("serve.brownout")
                    self._shed(
                        ticket, "brownout",
                        f"remaining {remaining:.4f}s < observed "
                        f"{need:.4f}s for kind {spec.kind!r}",
                    )
                    return ticket
        refused = self._offer(ticket, spec.priority)
        if refused is not None:
            self._shed(ticket, refused, f"queue limit {self._queue.limit}")
        return ticket

    def _offer(self, ticket: JobTicket, priority: int) -> str | None:
        """Enqueue ``ticket``; ``None`` when queued, else the shed reason.

        A closed queue refuses as ``shutdown`` (a submit, promotion or
        hedge racing ``stop()``); only an open one is ``queue_full``.
        """
        if self._queue.offer(ticket, priority=priority):
            return None
        return "shutdown" if self._queue.closed else "queue_full"

    def _shed(
        self, ticket: JobTicket, reason: str, detail: str = ""
    ) -> JobOutcome:
        """Settle ``ticket`` as shed; the one place a shed outcome is built."""
        outcome = JobOutcome(
            "shed", value=Rejected(reason, detail), reason=reason
        )
        self._settle(ticket, outcome)
        return outcome

    # ------------------------------------------------------------- accounting
    def _settle(self, ticket: JobTicket, outcome: JobOutcome) -> bool:
        if ticket.hedge_of is not None:
            # Hedge tickets are internal: their outcome settles the
            # primary (or is discarded) — they never touch the
            # accounting buckets or the WAL.
            return self._finalize_hedge(ticket, outcome)
        claimed = False
        try:
            if (
                ticket.memo_key is not None
                and self._memo is not None
                and outcome.status == "ok"
                and not outcome.cached
                and not ticket.done()
            ):
                # Written through before the ticket settles: the store
                # packs outside its lock, so a caller already holding
                # the result could otherwise resubmit the job and miss.
                self._memo.put(
                    ticket.memo_key, ticket.spec.kind, outcome.value
                )
            claimed = ticket._claim(outcome)
            if not claimed:
                return False
            with self._lock:
                self.counts[outcome.status] += 1
                if outcome.status == "shed":
                    self.shed_reasons[outcome.reason] = (
                        self.shed_reasons.get(outcome.reason, 0) + 1
                    )
                if outcome.degraded_to:
                    self.degraded_to[outcome.degraded_to] = (
                        self.degraded_to.get(outcome.degraded_to, 0) + 1
                    )
            if self.wal is not None:
                self.wal.commit({
                    "op": "settle", "seq": ticket.seq,
                    "status": outcome.status, "reason": outcome.reason,
                    "degraded_to": outcome.degraded_to,
                })
        finally:
            # The caller wakes only once the settle record is durable, so
            # it never holds a result the WAL lacks.  A failed commit, or
            # a cache write that raised before the claim, must still not
            # cost it its result.
            if claimed or ticket._claim(outcome):
                ticket._wake()
        name = {"ok": "accepted"}.get(outcome.status, outcome.status)
        self._registry.counter_inc(f"serve.{name}")
        if outcome.status == "shed":
            _trace.add_event(
                "serve.shed", seq=ticket.seq, label=ticket.label,
                reason=outcome.reason,
            )
        # Single choke point for flight transitions: *every* settle —
        # worker, admission shed, supervisor abandonment, shutdown —
        # flows through here, so a settled leader always releases (or
        # promotes) its flight and a settled waiter always leaves it.
        self._after_settle(ticket, outcome)
        return True

    # ---------------------------------------------------------------- workers
    def _spawn_worker(self) -> _Worker:
        name = f"serve-w{next(self._worker_seq)}"
        worker = _Worker(name)
        worker.hb = self._monitor.register(name)
        thread = threading.Thread(
            target=self._worker_loop, args=(worker,), name=name, daemon=True
        )
        worker.thread = thread
        with self._lock:
            self._active[name] = worker
        self._threads.append(thread)
        thread.start()
        return worker

    def _worker_loop(self, worker: _Worker) -> None:
        try:
            while not worker.retired:
                if self._limiter is not None and not self._limiter.acquire(
                    timeout=0.05
                ):
                    # Limiter saturated: a worker over the adaptive cap
                    # idles without dequeuing, so queued work keeps its
                    # queue position (and its deadline keeps ticking —
                    # expiry sheds are the limiter's backoff signal).
                    if self._queue.closed and len(self._queue) == 0:
                        break
                    continue
                try:
                    job = self._queue.take(timeout=0.05)
                    if job is None:
                        if self._queue.closed:
                            break
                        continue
                    if job.done():
                        continue  # shed or abandoned while queued
                    worker.current_job = job
                    worker.hb.start(job.label)
                    try:
                        self._run_job(job, worker)
                    finally:
                        worker.current_job = None
                        worker.hb.clear()
                finally:
                    if self._limiter is not None:
                        self._limiter.release()
        finally:
            self._monitor.unregister(worker.name)
            with self._lock:
                self._active.pop(worker.name, None)

    def _run_job(self, job: JobTicket, worker: _Worker) -> None:
        """Run one dequeued ticket: gates, execution, settle, feedback.

        A hedge shares the body and differs only here: it skips the
        gates its primary passed, its live-key slot spans exactly its
        execution (a leader's closes when its *ticket* settles), and
        the limiter sees its elapsed time even when it ends shed.
        """
        start = time.perf_counter()
        hedge = job.hedge_of is not None
        span, attrs = "serve.job", {}
        if hedge:
            if job.hedge_of.done():
                self._shed(job, "superseded", "primary settled first")
                return
            span, attrs = "serve.hedge", {"primary": job.hedge_of.seq}
            with self._lock:
                self._live(job.memo_key, +1)
        elif not self._pass_gates(job, start):
            return
        try:
            try:
                with _trace.span(
                    span, kind=job.spec.kind, label=job.label, seq=job.seq,
                    **attrs,
                ):
                    outcome = self._execute(job)
            finally:
                if hedge:
                    with self._lock:
                        self._live(job.memo_key, -1)
        except _ShedJob as sj:
            outcome = self._shed(job, sj.reason, sj.detail)
            if hedge:
                outcome.elapsed_s = time.perf_counter() - start
                self._observe_outcome(job, outcome)
            return
        except Exception as exc:  # noqa: BLE001 - nothing escapes a worker
            kind = classify_failure(exc)
            outcome = JobOutcome(
                "failed", reason=kind,
                failures=[TaskFailure(
                    scope="serve", index=job.seq, label=job.label,
                    kind=kind, error=repr(exc),
                )],
            )
        outcome.elapsed_s = time.perf_counter() - start
        self._settle(job, outcome)  # a hedge's routes to _finalize_hedge
        self._observe_outcome(job, outcome)

    def _pass_gates(self, job: JobTicket, start: float) -> bool:
        """Deadline, memo and single-flight gates of a dequeued primary.

        False: the job was shed, settled from the memo store, or parked
        as a waiter — it needs no execution of its own.
        """
        if job.deadline_at is not None and self._clock() >= job.deadline_at:
            self._shed(job, "deadline", "expired before execution")
            if self._limiter is not None:
                # A deadline expiring *in the queue* is the canonical
                # overload signal: back the concurrency limit off.
                self._limiter.on_shed()
            return False
        key = self._memo_key(job)
        if key is None:
            return True
        if self._memo is not None:
            cached = self._memo.get(key)
            if cached is not None:
                _trace.add_event(
                    "serve.memo_hit", seq=job.seq, label=job.label, key=key
                )
                self._settle(job, JobOutcome(
                    "ok", value=cached, cached=True,
                    elapsed_s=time.perf_counter() - start,
                ))
                return False
        if not self._lead_flight(job, key):
            # Parked behind the executing leader: the worker moves on,
            # and the leader's settle (or a promotion) settles this
            # ticket.  The supervisor sheds it if its deadline expires
            # first.
            _trace.add_event(
                "serve.coalesced_wait", seq=job.seq, label=job.label, key=key
            )
            return False
        return True

    def _observe_outcome(self, job: JobTicket, outcome: JobOutcome) -> None:
        """Feed one completed execution back into the adaptive loop.

        Called by the executing worker *before* it releases its limiter
        slot, so ``inflight`` still counts the caller when the limiter
        tests for saturation.  Cached replays are excluded from the
        latency estimate (they say nothing about execution cost).
        """
        if self._adaptive is None:
            return
        fresh = outcome.status in ("ok", "degraded") and not outcome.cached
        if fresh:
            self._latency.observe(job.spec.kind, outcome.elapsed_s)
        breach = outcome.elapsed_s > self._adaptive.slo_s(job.spec.kind)
        self._limiter.on_result(
            outcome.elapsed_s,
            ok=outcome.status in ("ok", "degraded"),
            breach=breach and not outcome.cached,
        )

    # ------------------------------------------------------ memo + coalescing
    def _memo_key(self, job: JobTicket) -> str | None:
        """The job's canonical content hash, or None if not memoizable."""
        if job.memo_key is None:
            try:
                job.memo_key = canonical_job_key(job.spec)
            except (TypeError, ValueError):
                return None
        return job.memo_key

    def _lead_flight(self, job: JobTicket, key: str) -> bool:
        """Join the key's flight; True means this job executes (leads)."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight(key, job)
                self._flights[key] = flight
            elif flight.leader is not job:
                flight.waiters.append(job)
                return False
            flight.executing = True
            flight.exec_started_at = self._clock()
            self._live(key, +1)
            return True

    def _live(self, key: str, delta: int) -> None:
        """Open (+1) or close (-1) one live-execution slot for ``key``.

        The live-key ledger's only writer; the caller holds ``_lock``.
        """
        live = self._live_keys.get(key, 0) + delta
        if live <= 0:
            self._live_keys.pop(key, None)
        else:
            self._live_keys[key] = live
            if live > self.max_live_per_key:
                self.max_live_per_key = live

    def _after_settle(self, ticket: JobTicket, outcome: JobOutcome) -> None:
        """Flight transitions after one ticket settled.

        A settled waiter leaves its flight.  A settled leader releases
        the flight: success fans the value out to every waiter (settled
        ``coalesced``, each exactly once); failure or shed *promotes*
        the next live waiter to leader and re-enqueues it.
        """
        key = ticket.memo_key
        if key is None:
            return
        settle_waiters: list[JobTicket] = []
        promoted: JobTicket | None = None
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                return
            if ticket is not flight.leader:
                try:
                    flight.waiters.remove(ticket)
                except ValueError:
                    pass
                return
            if flight.executing:
                # The leader's slot closes when its *ticket* settles —
                # possibly by a winning hedge while its own worker is
                # still running — so a fresh duplicate and that
                # duplicate's hedge never count a third execution.
                flight.executing = False
                self._live(key, -1)
            if outcome.status in ("ok", "degraded"):
                del self._flights[key]
                settle_waiters = [w for w in flight.waiters if not w.done()]
                flight.waiters = []
            else:
                while flight.waiters:
                    w = flight.waiters.pop(0)
                    if w.done():
                        continue
                    flight.leader = w
                    promoted = w
                    self.promotions += 1
                    break
                else:
                    del self._flights[key]
        for w in settle_waiters:
            self._settle(w, JobOutcome(
                "coalesced", value=outcome.value, reason="coalesced",
                degraded_to=outcome.degraded_to,
            ))
        if promoted is not None:
            _trace.add_event(
                "serve.flight_promoted", seq=promoted.seq,
                label=promoted.label, key=key,
            )
            self._registry.counter_inc("serve.flight.promotions")
            refused = self._offer(promoted, promoted.spec.priority)
            if refused is not None:
                # Re-enqueue refused (full or closed): shed the promoted
                # leader — its settle recurses here and promotes the
                # next waiter, so the cascade drains the whole flight.
                self._shed(promoted, refused, "promotion re-enqueue refused")

    def _expire_waiters(self) -> None:
        """Shed parked waiters whose deadlines lapsed (supervisor tick).

        The leader and the other waiters are untouched; the settle-once
        ticket guard makes a lost race with the leader's fan-out
        harmless.
        """
        now = self._clock()
        with self._lock:
            expired = [
                w
                for flight in self._flights.values()
                for w in flight.waiters
                if w.deadline_at is not None and now >= w.deadline_at
                and not w.done()
            ]
        for w in expired:
            self._shed(w, "deadline", "expired while coalesced behind a leader")

    def _flush_flights(self) -> None:
        """Settle anything still parked in a flight at shutdown."""
        with self._lock:
            flights = list(self._flights.values())
            self._flights.clear()
        for flight in flights:
            for t in (flight.hedge, flight.leader, *flight.waiters):
                if t is not None and not t.done():
                    self._shed(t, "shutdown", "flight abandoned at shutdown")

    # --------------------------------------------------- adaptive + hedging
    def _on_limit_change(self, limit: float) -> None:
        self._registry.gauge_set("serve.adaptive.limit", float(limit))
        _trace.add_event("serve.adaptive.limit", limit=round(limit, 3))

    def _retry_budget(self, machine: str, engine: str) -> RetryBudget | None:
        """The (created-on-demand) retry budget for one engine scope."""
        cfg = self._adaptive
        if cfg is None or cfg.retry_budget_ratio is None:
            return None
        key = f"{machine}:{engine}"
        with self._lock:
            rb = self._retry_budgets.get(key)
            if rb is None:
                rb = RetryBudget(ratio=cfg.retry_budget_ratio)
                self._retry_budgets[key] = rb
            return rb

    def _note_attempt(self, attempt_no: int, hedge: bool) -> None:
        """Count one engine attempt (the amplification invariant's input)."""
        with self._lock:
            self.attempts += 1
            if hedge:
                self.hedge_attempts += 1
            elif attempt_no == 0:
                self.attempt_units += 1
        self._registry.counter_inc("serve.attempts")

    def amplification_ok(self) -> bool:
        """The retry-amplification bound, from the service's own counters.

        ``attempts <= first_attempt_units * (1 + ratio)``: every
        non-first attempt — a retry or a hedge — spent one token, and
        tokens are only minted at ``ratio`` per first attempt.
        Trivially true when retry budgets are off.
        """
        cfg = self._adaptive
        if cfg is None or cfg.retry_budget_ratio is None:
            return True
        with self._lock:
            attempts = self.attempts
            units = self.attempt_units
        return attempts <= units * (1.0 + cfg.retry_budget_ratio) + 1e-9

    def _launch_hedges(self) -> None:
        """Supervisor tick: hedge stragglers past their kind's p95.

        A flight whose leader has been executing longer than
        ``hedge_factor * p95(kind)`` launches at most one speculative
        duplicate through the same single-flight table (so
        ``max_live_per_key`` is bounded by 2: leader + hedge).  The
        launch spends a retry-budget token — hedges are speculative
        *attempts* and count against the same amplification bound as
        retries.  First completion wins; the loser cancels
        cooperatively and is accounted ``hedge_lost``.
        """
        cfg = self._adaptive
        if cfg is None or not cfg.hedge:
            return
        now = self._clock()
        launches: list[JobTicket] = []
        with self._lock:
            for flight in self._flights.values():
                primary = flight.leader
                if (
                    not flight.executing
                    or flight.hedged
                    or primary.done()
                    or flight.exec_started_at is None
                    or primary.spec.kind not in ("estimate", "simulate")
                ):
                    continue
                kind = primary.spec.kind
                if self._latency.samples(kind) < cfg.hedge_min_samples:
                    continue
                p95 = self._latency.p95_s(kind)
                if p95 is None or now - flight.exec_started_at <= (
                    cfg.hedge_factor * p95
                ):
                    continue
                flight.hedged = True
                hedge = JobTicket(
                    next(self._seq), primary.spec, primary.deadline_at
                )
                hedge.label = f"{primary.label}~hedge"
                hedge.hedge_of = primary
                hedge.memo_key = primary.memo_key
                flight.hedge = hedge
                launches.append(hedge)
        for hedge in launches:
            primary = hedge.hedge_of
            point = primary.spec.payload
            machine = getattr(
                getattr(point, "machine", None), "name", "serve"
            )
            budget = self._retry_budget(machine, primary.spec.kind)
            if budget is not None and not budget.try_spend():
                refused = "budget"
            else:
                # Priority +1: a hedge that queues behind the very
                # backlog that made its primary a straggler is useless.
                refused = self._offer(hedge, primary.spec.priority + 1)
            if refused is not None:
                with self._lock:
                    self.hedges["denied"] += 1
                    flight = self._flights.get(hedge.memo_key or "")
                    if flight is not None and flight.hedge is hedge:
                        flight.hedge = None
                self._registry.counter_inc("serve.hedge.denied")
                _trace.add_event(
                    "serve.hedge_denied", seq=primary.seq,
                    label=primary.label, reason=refused,
                )
                continue
            with self._lock:
                self.hedges["launched"] += 1
            self._registry.counter_inc("serve.hedge.launched")
            _trace.add_event(
                "serve.hedge_launched", seq=primary.seq, hedge_seq=hedge.seq,
                label=primary.label,
            )

    def _finalize_hedge(self, hedge: JobTicket, outcome: JobOutcome) -> bool:
        """Settle one hedge ticket: win the primary's race or lose quietly.

        The hedge's own ticket settles exactly once (so a worker
        abandonment and the execution's own settle cannot double-count);
        a winning outcome settles the *primary* through the normal
        choke point — accounting, WAL, memo write-through, and waiter
        fan-out all behave as if the primary had produced it.
        """
        if not hedge._claim(outcome):
            return False
        hedge._wake()
        primary = hedge.hedge_of
        assert primary is not None
        key = hedge.memo_key
        with self._lock:
            flight = self._flights.get(key) if key is not None else None
            if flight is not None and flight.hedge is hedge:
                flight.hedge = None
        won = False
        if outcome.status in ("ok", "degraded"):
            won = self._settle(primary, outcome)
        with self._lock:
            self.hedges["won" if won else "lost"] += 1
        self._registry.counter_inc(
            "serve.hedge.won" if won else "serve.hedge.lost"
        )
        _trace.add_event(
            "serve.hedge_settled", seq=primary.seq, hedge_seq=hedge.seq,
            label=primary.label, won=won, status=outcome.status,
        )
        return won

    # -------------------------------------------------------------- execution
    def _execute(self, job: JobTicket) -> JobOutcome:
        kind = job.spec.kind
        if kind in ("estimate", "simulate"):
            return self._execute_engine(job)
        if kind == "grid":
            return self._execute_grid(job)
        return self._execute_cluster(job)

    def _remaining_s(self, job: JobTicket) -> float | None:
        if job.deadline_at is None:
            return None
        return job.deadline_at - self._clock()

    def _check_deadline(self, job: JobTicket) -> None:
        remaining = self._remaining_s(job)
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                f"job {job.label!r} overran its deadline", job.spec.deadline_s
            )

    def breaker(self, machine: str, engine: str) -> CircuitBreaker:
        """The (created-on-demand) breaker guarding one engine key."""
        key = f"{machine}:{engine}"
        with self._lock:
            br = self._breakers.get(key)
            if br is None:
                br = CircuitBreaker(
                    key, on_transition=self._on_breaker_transition,
                    **self._breaker_kw,
                )
                self._breakers[key] = br
            return br

    def _on_breaker_transition(self, key: str, old: str, new: str) -> None:
        self._registry.counter_inc("serve.breaker.transitions")
        self._registry.gauge_set(f"serve.breaker.{key}.state", STATE_CODES[new])
        _trace.add_event("serve.breaker", key=key, old=old, new=new)

    def _run_on_shard(
        self, job: JobTicket, point: GridPoint, eng: str, site: str,
        attempt_no: int,
    ) -> SimResult:
        """One attempt on the shard pool, with shed-vs-retry routing.

        The attempt number salts the fault-plan site label so a retried
        job rolls fresh faults on its replacement shard (a fresh child
        has a fresh plan — without the salt, a planned kill at the bare
        site would kill every replacement forever).
        """
        assert self._shards is not None
        try:
            return self._shards.run(
                job.seq, point, eng, site=f"{site}#{attempt_no}",
                deadline_at=job.deadline_at,
            )
        except ShardOverBudget as exc:
            # Child-side admission refusal: nothing ran, shed like a
            # parent-side byte_budget refusal.
            raise _ShedJob("byte_budget", str(exc)) from None
        except WorkerLost as exc:  # LeaseUnavailable subclasses WorkerLost
            if (
                job.deadline_at is not None
                and self._clock() >= job.deadline_at
            ):
                # The deadline expired *while the shard was being
                # replaced* — the job never got to run to completion,
                # so it sheds (load) rather than fails (work).
                raise _ShedJob(
                    "deadline",
                    f"expired while shard was being replaced: {exc}",
                ) from None
            raise

    def _guarded_point(
        self, point: GridPoint, site: str, *, job: JobTicket, eng: str,
        br: CircuitBreaker, policy: RetryPolicy, budget: RetryBudget | None,
        failures: list[TaskFailure], hedge: bool,
    ) -> SimResult | JobOutcome | None:
        """Evaluate one point on one ladder rung behind every guard.

        Each attempt is noted, checked against the deadline and a
        superseding settle, fault-perturbed, run on a shard or directly,
        and watchdogged for corrupt/non-finite output; ``call_with_retry``
        drives the attempts and their failures land in ``failures``.
        Returns the result, ``None`` when the rung is exhausted (the
        ladder moves down), or the terminal ``failed`` outcome when the
        job's deadline is spent.
        """
        attempt_counter = itertools.count()

        def attempt() -> SimResult:
            attempt_no = next(attempt_counter)
            self._note_attempt(attempt_no, hedge)
            self._check_deadline(job)
            if job.done():
                # Cooperative cancellation at every attempt boundary: a
                # ticket already settled — a primary beaten by its hedge,
                # a job abandoned as hung or flushed at shutdown — stops
                # burning attempts on a result nobody will read.  (A
                # hedge's one attempt follows _run_job's check of its
                # primary directly.)
                raise _ShedJob("superseded", "raced execution already settled")
            _faults.perturb("serve", job.seq, site)
            t0 = time.perf_counter()
            with _trace.span(
                "serve.point", engine=eng, **span_attrs(point, job.seq)
            ) as s:
                if self._shards is not None:
                    r = self._run_on_shard(job, point, eng, site, attempt_no)
                else:
                    r = point.evaluate(engine=eng)
                if _faults.take_corrupt("serve", job.seq, site):
                    r.time_s = float("nan")
                if not is_finite_result(r):
                    raise CorruptionError(f"non-finite result for {site!r}")
                record_point_metrics(s, r, time.perf_counter() - t0)
            return r

        try:
            r, retried = call_with_retry(
                attempt, policy, scope="serve", index=job.seq, label=site,
                deadline_at=job.deadline_at, clock=self._clock, budget=budget,
            )
        except RetryExhausted as exc:
            failures.extend(exc.failures)
            last_kind = exc.failures[-1].kind
            if (
                last_kind not in PROCESS_FAILURE_KINDS
                and last_kind != RETRY_BUDGET_KIND
            ):
                # Shard death is a lease-recovery event, not an engine
                # fault: replacing the worker fixed the capacity, so the
                # breaker must not trip on it.  A denied retry budget is
                # likewise a *load* signal, not evidence the engine is
                # unhealthy.
                br.record_failure(last_kind)
            if last_kind != "deadline":
                return None
            if any(f.kind in PROCESS_FAILURE_KINDS for f in failures[:-1]):
                # The budget was eaten by shard replacement, not by the
                # work itself: shed, don't fail.
                raise _ShedJob(
                    "deadline", "expired during shard replacement"
                ) from None
            # The job's budget is spent; degrading cannot help.
            return JobOutcome("failed", reason="deadline", failures=failures)
        failures.extend(retried)
        return r

    def _walk_ladder(
        self, job: JobTicket, machine: str, requested: str, rung
    ) -> JobOutcome:
        """Walk the degradation ladder (simulate -> estimate) for one job.

        Point and cluster jobs differ only in ``rung(eng, evaluate)``:
        it evaluates the rung's point(s) through ``evaluate(point,
        site)`` — :meth:`_guarded_point` bound to the rung — and returns
        the job's value, or hands back a non-result ``evaluate`` gave it
        (``None``: rung exhausted; a terminal outcome).
        """
        hedge = job.hedge_of is not None
        if hedge:
            # A hedge is speculative capacity whose launch already spent
            # a budget token: it races its primary on the requested rung
            # only, with exactly one attempt and no further budget.
            ladder = (requested,)
            policy = replace(self.retry_policy, max_attempts=1)
        else:
            ladder = (
                ("simulate", "estimate") if requested == "simulate"
                else ("estimate",)
            )
            policy = self.retry_policy
        failures: list[TaskFailure] = []
        for eng in ladder:
            br = self.breaker(machine, eng)
            if not br.allow():
                _trace.add_event(
                    "serve.breaker_refused", key=br.key, seq=job.seq,
                    label=job.label,
                )
                continue
            value = rung(eng, partial(
                self._guarded_point, job=job, eng=eng, br=br, policy=policy,
                budget=None if hedge else self._retry_budget(machine, eng),
                failures=failures, hedge=hedge,
            ))
            if isinstance(value, JobOutcome):
                return value
            if value is None:
                continue
            br.record_success()
            if eng == requested:
                return JobOutcome("ok", value=value, failures=failures)
            for f in failures:
                f.recovered = True
                if f.degraded_to is None:
                    f.degraded_to = eng
            return JobOutcome(
                "degraded", value=value, degraded_to=eng, failures=failures
            )
        # Breakers open or every rung failed.  A config that ran before
        # never gets here: the memo store served it at the gates.
        reason = failures[-1].kind if failures else "breaker_open"
        return JobOutcome("failed", reason=reason, failures=failures)

    def _execute_engine(self, job: JobTicket) -> JobOutcome:
        point = _as_point(job.spec.payload)
        return self._walk_ladder(
            job, point.machine.name, job.spec.kind,
            lambda eng, evaluate: evaluate(point, f"{job.label}|{eng}"),
        )

    def _execute_cluster(self, job: JobTicket) -> JobOutcome:
        """One distributed cluster step through the served front.

        The geometry side — rank decomposition and the copier-derived
        halo plan — is deterministic and is built parent-side.  Only
        the engine evaluations (one per *distinct* per-rank box count;
        uniform decompositions have at most two) are failure-prone, and
        each rides the exact machinery point jobs ride: the same ladder
        walk, ``call_with_retry``, fault perturbation, and — with
        ``shards=N`` — process-isolated execution, since a rank compute
        task *is* a :class:`GridPoint` over the rank's synthetic
        sub-domain.  Per-rank costs are then folded through the same
        :func:`~repro.cluster.scaling.assemble_step` as the direct path,
        so served and direct cluster steps report identical attribution
        and obs gauges.
        """
        point = _as_cluster_point(job.spec.payload)
        graph = point.graph()
        dim = len(graph.domain_cells)

        def rung(eng: str, evaluate):
            sims: dict[int, SimResult] = {}
            for k in graph.distinct_box_counts():
                gp = GridPoint(
                    point.variant, point.machine, graph.threads,
                    point.box_size,
                    rank_workload_cells(point.box_size, k, dim),
                    ncomp=point.ncomp, engine=eng,
                )
                r = evaluate(gp, f"{job.label}|{eng}|r{k}")
                if r is None or isinstance(r, JobOutcome):
                    return r
                sims[k] = r
            return assemble_step(graph, graph.assemble(sims), eng)

        return self._walk_ladder(job, point.machine.name, point.engine, rung)

    def _execute_grid(self, job: JobTicket) -> JobOutcome:
        points = _as_points(job.spec.payload)
        self._check_deadline(job)
        policy = None
        remaining = self._remaining_s(job)
        if remaining is not None:
            cap = remaining if self.retry_policy.deadline_s is None else min(
                remaining, self.retry_policy.deadline_s
            )
            policy = replace(self.retry_policy, deadline_s=cap)
        elif _faults.plan_active():
            policy = self.retry_policy
        gr = run_grid(points, policy=policy)
        unrecovered = [f for f in gr.failures if not f.recovered]
        incomplete = any(r is None for r in gr)
        if incomplete or unrecovered:
            reason = unrecovered[0].kind if unrecovered else "exception"
            return JobOutcome(
                "failed", value=gr, reason=reason, failures=list(gr.failures)
            )
        degraded_to = next(
            (f.degraded_to for f in gr.failures if f.degraded_to), None
        )
        if gr.degraded or degraded_to:
            return JobOutcome(
                "degraded", value=gr, degraded_to=degraded_to or "serial",
                failures=list(gr.failures),
            )
        return JobOutcome("ok", value=gr, failures=list(gr.failures))

    # ------------------------------------------------------------- supervisor
    def _supervise_loop(self) -> None:
        while not self._stop_event.wait(self.supervise_interval_s):
            self._check_hung()
            self._expire_waiters()
            self._launch_hedges()
            self._publish_gauges()

    def _check_hung(self) -> None:
        with self._lock:
            workers = list(self._active.values())
            stopping = self._stopping
        for worker in workers:
            job = worker.current_job
            busy = worker.hb.busy_for()
            if job is None or busy is None or busy <= self.hang_timeout_s:
                continue
            # Abandon: settle the job as failed, retire the worker, and
            # replace it.  The wedged thread discards its result when it
            # wakes (settle-once) and exits via the retired flag.
            abandoned = self._settle(job, JobOutcome(
                "failed", reason="hung",
                failures=[TaskFailure(
                    scope="serve", index=job.seq, label=job.label,
                    kind="timeout",
                    error=f"hung for {busy:.3f}s > {self.hang_timeout_s}s; "
                          f"worker {worker.name} abandoned",
                )],
            ))
            worker.retired = True
            with self._lock:
                self._active.pop(worker.name, None)
                self.workers_replaced += 1
            self._registry.counter_inc("serve.workers.replaced")
            _trace.add_event(
                "serve.worker.abandoned", worker=worker.name,
                label=job.label, busy_s=busy, settled=abandoned,
            )
            if not stopping:
                self._spawn_worker()

    def _publish_gauges(self) -> None:
        reg = self._registry
        qs = self._queue.stats()
        reg.gauge_set("serve.queue.depth", float(qs["depth"]))
        reg.gauge_set("serve.queue.high_water", float(qs["high_water"]))
        if self.budget is not None:
            bs = self.budget.stats()
            reg.gauge_set("serve.budget.bytes", float(self.budget.current()))
            reg.gauge_set("serve.budget.high_water", float(bs["high_water"]))
        with self._lock:
            breakers = list(self._breakers.values())
            active = len(self._active)
        for br in breakers:
            reg.gauge_set(f"serve.breaker.{br.key}.state", br.state_code)
        reg.gauge_set("serve.workers.active", float(active))
        if self._memo is not None:
            ms = self._memo.stats()
            reg.gauge_set("serve.memo.bytes", float(ms["bytes"]))
            reg.gauge_set("serve.memo.entries", float(ms["entries"]))
        if self._limiter is not None:
            ls = self._limiter.stats()
            reg.gauge_set("serve.adaptive.limit", float(ls["limit"]))
            reg.gauge_set("serve.adaptive.inflight", float(ls["inflight"]))
            reg.gauge_set("serve.adaptive.rtt_ms", float(ls["last_rtt_ms"]))
        reg.gauge_set(
            "serve.pool.threads_alive",
            float(shared_pool_stats()["threads_alive"]),
        )
        if self._shards is not None:
            self._shards.publish_gauges(reg)
        from ..util.arena import publish_arena_gauges

        publish_arena_gauges(reg)

    # ------------------------------------------------------------ introspection
    def census(self) -> list[str]:
        """Names of service threads still alive (chaos asserts empty)."""
        return [t.name for t in self._threads if t.is_alive()]

    def breakers(self) -> dict[str, CircuitBreaker]:
        with self._lock:
            return dict(self._breakers)

    def accounted(self) -> bool:
        """The core invariant: every submitted job settled exactly once."""
        with self._lock:
            c = dict(self.counts)
        settled = (
            c["ok"] + c["shed"] + c["degraded"] + c["failed"] + c["coalesced"]
        )
        return settled == c["submitted"]

    def stats(self) -> dict:
        with self._lock:
            counts = dict(self.counts)
            shed_reasons = dict(self.shed_reasons)
            degraded_to = dict(self.degraded_to)
            replaced = self.workers_replaced
            active = len(self._active)
            breakers = {k: b.to_dict() for k, b in self._breakers.items()}
            flights = len(self._flights)
            parked = sum(len(f.waiters) for f in self._flights.values())
            promotions = self.promotions
            max_live = self.max_live_per_key
            hedges = dict(self.hedges)
            attempts = self.attempts
            attempt_units = self.attempt_units
            hedge_attempts = self.hedge_attempts
            budgets = dict(self._retry_budgets)
        return {
            "counts": counts,
            "shed_reasons": shed_reasons,
            "degraded_to": degraded_to,
            "queue": self._queue.stats(),
            "budget": None if self.budget is None else self.budget.stats(),
            "breakers": breakers,
            "workers": {
                "configured": self.num_workers,
                "active": active,
                "replaced": replaced,
                "registered_heartbeats": len(self._monitor),
            },
            "shards": (
                None if self._shards is None else self._shards.stats()
            ),
            "memo": None if self._memo is None else self._memo.stats(),
            "coalesce": {
                "flights": flights,
                "parked": parked,
                "coalesced": counts["coalesced"],
                "promotions": promotions,
                "max_live_per_key": max_live,
            },
            "adaptive": None if self._adaptive is None else {
                "limiter": self._limiter.stats(),
                "latency": self._latency.snapshot(),
                "retry_budgets": {
                    k: b.stats() for k, b in sorted(budgets.items())
                },
                "hedges": hedges,
                "attempts": attempts,
                "attempt_units": attempt_units,
                "hedge_attempts": hedge_attempts,
                "amplification_ok": self.amplification_ok(),
            },
            "accounted": self.accounted(),
        }


def _as_point(payload) -> GridPoint:
    if not isinstance(payload, GridPoint):
        raise TypeError(f"engine job payload must be a GridPoint, got {payload!r}")
    return payload


def _as_cluster_point(payload) -> ClusterPoint:
    if not isinstance(payload, ClusterPoint):
        raise TypeError(
            f"cluster job payload must be a ClusterPoint, got {payload!r}"
        )
    return payload


def _as_points(payload) -> list[GridPoint]:
    points = list(payload)
    for p in points:
        _as_point(p)
    return points


def serve_grid(
    points: Iterable[GridPoint],
    service: JobService,
    batch: bool = True,
) -> GridResult:
    """Route an experiment grid through a running service.

    ``batch=True`` submits the whole grid as one job (one queue hop —
    the overhead benchmark's path); ``batch=False`` submits one job per
    point, exercising admission per point.  Either way the return value
    is a :class:`~repro.bench.runner.GridResult` shaped exactly like
    ``run_grid``'s: ``None`` holds the slot of any point that was shed
    or failed, and the failure manifest says why.  Jobs carry the
    default priority and the service's default deadline; each result is
    awaited for up to 120 s.
    """
    points = list(points)
    if batch:
        ticket = service.submit(JobSpec(
            "grid", points, label=f"grid[{len(points)}]",
        ))
        out = ticket.result(timeout=120.0)
        if isinstance(out.value, GridResult):
            return out.value
        # Shed at admission (or expired): no point ran.
        detail = out.value.detail if isinstance(out.value, Rejected) else ""
        return GridResult(
            [None] * len(points),
            failures=[TaskFailure(
                scope="serve", index=None, label=ticket.label,
                kind="cancelled", error=f"shed: {out.reason} {detail}".strip(),
            )],
            grid_hash=grid_hash(points),
        )
    tickets = [
        service.submit(JobSpec(p.engine, p, label=point_key(p)))
        for p in points
    ]
    results: list[SimResult | None] = []
    failures: list[TaskFailure] = []
    degraded = False
    for ticket in tickets:
        out = ticket.result(timeout=120.0)
        failures.extend(out.failures)
        if out.status in ("ok", "degraded", "coalesced") and isinstance(
            out.value, SimResult
        ):
            results.append(out.value)
            degraded = degraded or out.status == "degraded"
        else:
            results.append(None)
            if out.status == "shed":
                failures.append(TaskFailure(
                    scope="serve", index=ticket.seq, label=ticket.label,
                    kind="cancelled", error=f"shed: {out.reason}",
                ))
    return GridResult(
        results, failures=failures, degraded=degraded,
        grid_hash=grid_hash(points),
    )
