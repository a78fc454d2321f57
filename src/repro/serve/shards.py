"""Crash-safe multi-process shard pool behind the serving layer.

The paper trades *recomputation* against *locality* under fixed
machine constraints; at serving scale the same tradeoff reappears as
"recompute a lost job vs. recover it from a durable journal".  This
module makes worker death a **normal event**: simulation escapes the
GIL into supervised child processes ("shards"), every job handed to a
shard is covered by a **lease** in a write-ahead log, and a shard that
dies — SIGKILL, OOM, segfault, frozen after a bad fork — is reaped and
replaced while its orphaned lease is re-queued or degraded by the
existing ladder.

Shard lifecycle (mirrored into ``repro.obs`` and the WAL)::

    spawn -> idle -> leased -> idle -> ... -> dead -> reaped -> (replaced)

* **spawn** — a child process starts with its own heartbeat channel
  and (optionally) its own RSS :class:`~repro.serve.budget.ByteBudget`;
  the WAL records ``{"op": "spawn", "shard": ..., "pid": ...}``.
* **lease** — :meth:`ShardPool.run` checks a shard out, commits a
  ``lease`` record (durable *before* the job crosses the pipe), and
  ships the pickled point.  A completed job commits ``release``; the
  pool hands the shard back to the free list.
* **dead** — detected within one poll step by the *owner* (pipe EOF,
  ``is_alive()`` false, stale heartbeat) or, for idle shards, by the
  pool supervisor.  The corpse is reaped (``reap`` record, exit code
  preserved), the lease is closed as ``orphan``, a replacement is
  spawned, and the owner raises
  :class:`~repro.resilience.retry.WorkerLost` — the serve retry ladder
  re-queues the job on a fresh shard or degrades it.
* **recovery** — opening the pool over a resumed WAL folds the record
  stream (:func:`replay_wal_state`); leases left open by a crashed
  supervisor are closed with a ``recover`` record and surfaced through
  :attr:`ShardPool.recovered_leases` so callers can resubmit the
  orphaned jobs.

Only the owner of a leased shard touches it — the supervisor thread
manages idle shards exclusively — so reap/replace never races.

The pool's timing and start method are module constants, not
parameters: ``HEARTBEAT_TIMEOUT_S``, ``LEASE_TIMEOUT_S``,
``CHECKOUT_TIMEOUT_S``, ``POLL_STEP_S`` and ``START_METHOD`` (``fork``
where the platform has it).

Kill injection: each child installs its own seeded fault plan (pure
function of ``(seed, scope, index, label)``, hence identical no matter
which shard runs the job) and consults
:func:`repro.resilience.faults.die_if_planned` *before* any work runs,
so a ``kill`` fault is exactly a crash between lease and execution —
re-dispatch is always safe.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time

from ..machine.simulator import SimResult
from ..obs import trace as _trace
from ..obs.metrics import default_registry
from ..resilience import faults as _faults
from ..resilience.journal import (
    AppendLog,
    WALJournal,
    sim_result_from_dict,
    sim_result_to_dict,
)
from ..resilience.retry import DeadlineExceeded, RemoteTaskError, WorkerLost
from .budget import ByteBudget

__all__ = [
    "Shard",
    "ShardPool",
    "LeaseUnavailable",
    "ShardOverBudget",
    "replay_wal_state",
]

#: The multiprocessing start method: ``fork`` where available, which
#: inherits the parent's warm workload and phase-cost caches, so a
#: shard's first job costs the same as its hundredth; elsewhere the
#: platform's first (default) method.
_METHODS = multiprocessing.get_all_start_methods()
START_METHOD = "fork" if "fork" in _METHODS else _METHODS[0]
#: A live shard whose heartbeat is older than this is reaped as hung.
HEARTBEAT_TIMEOUT_S = 5.0
#: Hard ceiling on one lease, whatever the caller's deadline.
LEASE_TIMEOUT_S = 60.0
#: Longest wait for an idle shard before :class:`LeaseUnavailable`.
CHECKOUT_TIMEOUT_S = 10.0
#: How often a lease owner re-checks its shard while waiting on the pipe.
POLL_STEP_S = 0.01

_STOP = ("stop",)


class LeaseUnavailable(WorkerLost):
    """No shard could be leased before the caller's budget expired.

    Subclasses :class:`WorkerLost` because the cause is the same event
    family — shards dying (and being replaced) faster than the free
    list refills — and the caller's recourse is identical: retry,
    degrade, or shed.
    """


class ShardOverBudget(RuntimeError):
    """A shard refused a job because its own byte budget is exhausted.

    Child-side admission control: the shard probed its RSS above the
    per-shard limit *before* running the job, so nothing executed.  The
    service sheds the job with reason ``byte_budget``, same as a
    parent-side budget refusal.
    """

    def __init__(self, shard: str, current: int, limit: int):
        super().__init__(
            f"shard {shard} over byte budget: {current} > {limit}"
        )
        self.shard = shard
        self.current = current
        self.limit = limit


def _build_child_plan(fault_params: dict | None):
    """Construct the child's fault plan from picklable parameters."""
    if not fault_params:
        return None
    if "specs" in fault_params:
        return _faults.FaultPlan(
            [_faults.FaultSpec(**spec) for spec in fault_params["specs"]]
        )
    return _faults.RandomFaultPlan(**fault_params)


def _shard_main(conn, hb, ident: str, budget_limit, fault_params) -> None:
    """Child process entry: evaluate points shipped over the pipe.

    The protocol is strictly request/response — one ``("job", seq,
    site, point, engine)`` in, exactly one of ``("ok", seq, result)`` /
    ``("err", seq, kind, error)`` / ``("over_budget", seq, current,
    limit)`` out — so the parent can attribute every message to its
    lease.  Exceptions never cross the pipe as pickles: the child
    classifies them (:func:`classify_failure`) and ships ``(kind,
    repr)``.
    """
    from ..resilience.retry import classify_failure

    _faults.set_fault_plan(_build_child_plan(fault_params))
    stop_beat = threading.Event()

    def _beat() -> None:
        while not stop_beat.wait(0.02):
            hb.value = time.monotonic()

    beater = threading.Thread(target=_beat, name=f"{ident}-hb", daemon=True)
    beater.start()
    budget = (
        None if budget_limit is None else ByteBudget(budget_limit, probe="rss")
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None or msg[0] == "stop":
            break
        _op, seq, site, point, engine = msg
        hb.value = time.monotonic()
        # The process-level fault family: die *before* any work, so a
        # re-dispatch on a fresh shard is always safe.
        _faults.die_if_planned("shard", seq, site)
        if budget is not None:
            ok, current = budget.admits()
            if not ok:
                try:
                    conn.send(("over_budget", seq, current, budget.limit_bytes))
                except (BrokenPipeError, OSError):
                    break
                continue
        try:
            _faults.perturb("shard", seq, site)
            r = point.evaluate(engine=engine)
            if _faults.take_corrupt("shard", seq, site):
                r.time_s = float("nan")
            payload = ("ok", seq, sim_result_to_dict(r))
        except BaseException as exc:  # noqa: BLE001 - classified, not raised
            payload = ("err", seq, classify_failure(exc), repr(exc))
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
        hb.value = time.monotonic()
    stop_beat.set()
    conn.close()


class Shard:
    """One supervised child process and its parent-side bookkeeping."""

    __slots__ = (
        "ident", "proc", "conn", "hb", "spawned_at", "jobs_done", "state",
    )

    def __init__(self, ident: str, proc, conn, hb):
        self.ident = ident
        self.proc = proc
        self.conn = conn
        self.hb = hb
        self.spawned_at = time.monotonic()
        self.jobs_done = 0
        self.state = "idle"  # "idle" | "leased" | "dead"

    def alive(self) -> bool:
        return self.proc.is_alive()

    def heartbeat_age(self) -> float:
        return time.monotonic() - float(self.hb.value)

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def __repr__(self) -> str:
        return (
            f"Shard({self.ident}, pid={self.pid}, state={self.state}, "
            f"jobs={self.jobs_done})"
        )


def replay_wal_state(records_or_path) -> dict:
    """Fold a WAL record stream into the state it proves.

    Accepts a record list or a path (read, never opened for append: a
    torn tail is ignored, not truncated, so replaying a log another
    process is mid-commit on leaves it byte-identical).  Returns::

        {
          "settled":     {str(seq): {"status", "reason", "degraded_to"}},
          "open_leases": {lid: {"seq", "shard", "site"}},
          "shards":      {ident: last lifecycle op},
          "counts":      {"leases", "releases", "orphans", "recovered",
                          "spawns", "reaps", "settles"},
        }

    ``settled`` is the reconstructed ticket state — after a supervisor
    crash it must match the in-memory outcomes exactly (the chaos
    soak's sixth invariant).  ``open_leases`` must be empty after a
    clean drain (the fifth): every lease is closed by ``release``
    (job completed), ``orphan`` (shard died, job re-queued/degraded),
    or ``recover`` (post-crash sweep).
    """
    if isinstance(records_or_path, (str, os.PathLike)):
        records = AppendLog.read_records(str(records_or_path))
    else:
        records = list(records_or_path)
    settled: dict[str, dict] = {}
    open_leases: dict[str, dict] = {}
    shards: dict[str, str] = {}
    counts = {
        "leases": 0, "releases": 0, "orphans": 0, "recovered": 0,
        "spawns": 0, "reaps": 0, "settles": 0,
    }
    for rec in records:
        op = rec.get("op")
        if op == "lease":
            counts["leases"] += 1
            open_leases[rec["lid"]] = {
                "seq": rec.get("seq"),
                "shard": rec.get("shard"),
                "site": rec.get("site", ""),
            }
        elif op == "release":
            counts["releases"] += 1
            open_leases.pop(rec["lid"], None)
        elif op == "orphan":
            counts["orphans"] += 1
            open_leases.pop(rec["lid"], None)
        elif op == "recover":
            for lid in rec.get("lids", ()):
                if lid in open_leases:
                    counts["recovered"] += 1
                    open_leases.pop(lid, None)
        elif op == "settle":
            counts["settles"] += 1
            settled[str(rec["seq"])] = {
                "status": rec.get("status"),
                "reason": rec.get("reason", ""),
                "degraded_to": rec.get("degraded_to"),
            }
        elif op == "spawn":
            counts["spawns"] += 1
            shards[rec["shard"]] = "spawned"
        elif op == "reap":
            counts["reaps"] += 1
            shards[rec["shard"]] = "reaped"
    return {
        "settled": settled,
        "open_leases": open_leases,
        "shards": shards,
        "counts": counts,
    }


class ShardPool:
    """A supervised pool of process shards with WAL-backed leases."""

    def __init__(
        self,
        shards: int = 2,
        wal: WALJournal | None = None,
        byte_budget_bytes: int | None = None,
        fault_params: dict | None = None,
        supervise_interval_s: float = 0.05,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.target = int(shards)
        self.wal = wal
        self.byte_budget_bytes = byte_budget_bytes
        self.fault_params = fault_params
        self.supervise_interval_s = float(supervise_interval_s)
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._registry = default_registry()
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._free_list: list[Shard] = []
        self._shards: dict[str, Shard] = {}
        self._shard_seq = itertools.count()
        self._lease_seq = itertools.count()
        self._stopping = False
        self._started = False
        self._supervisor: threading.Thread | None = None
        self._stop_event = threading.Event()
        # Lifetime counters (mirrored into repro.obs at event time).
        self.spawned_total = 0
        self.restarts_total = 0
        self.leases_granted = 0
        self.leases_released = 0
        self.leases_orphaned = 0
        self.wal_recoveries_total = 0
        #: Leases a previous (crashed) supervisor left open in the WAL,
        #: closed at startup; callers may resubmit the orphaned jobs.
        self.recovered_leases: list[dict] = []

    # --------------------------------------------------------------- lifecycle
    def start(self) -> "ShardPool":
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._recover_wal()
        for _ in range(self.target):
            self._spawn()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="shard-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        with self._lock:
            self._stopping = True
            shards = list(self._shards.values())
            self._free_list.clear()
            self._free.notify_all()
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout)
        for shard in shards:
            try:
                shard.conn.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for shard in shards:
            shard.proc.join(max(0.05, deadline - time.monotonic()))
            if shard.proc.is_alive():
                shard.proc.kill()
                shard.proc.join(1.0)
            self._wal_commit({
                "op": "reap", "shard": shard.ident,
                "exitcode": shard.proc.exitcode, "cause": "shutdown",
            })
            shard.conn.close()
            shard.proc.close()
        with self._lock:
            self._shards.clear()

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -------------------------------------------------------------------- WAL
    def _wal_commit(self, record: dict) -> None:
        if self.wal is not None:
            self.wal.commit(record)

    def _recover_wal(self) -> None:
        """Close leases a crashed supervisor left open (orphan-job sweep)."""
        if self.wal is None:
            return
        state = replay_wal_state(self.wal.replay())
        if not state["open_leases"]:
            return
        self.recovered_leases = [
            {"lid": lid, **info} for lid, info in state["open_leases"].items()
        ]
        self._wal_commit({
            "op": "recover", "lids": sorted(state["open_leases"]),
        })
        self.wal_recoveries_total += len(state["open_leases"])
        self._registry.counter_inc(
            "serve.shards.wal_recoveries_total", len(state["open_leases"])
        )
        _trace.add_event(
            "shard.wal_recovered", leases=len(state["open_leases"]),
        )

    # ------------------------------------------------------------------ spawn
    def _spawn(self, replacement: bool = False) -> Shard:
        ident = f"s{next(self._shard_seq)}"
        parent_conn, child_conn = self._ctx.Pipe()
        hb = self._ctx.Value("d", time.monotonic())
        proc = self._ctx.Process(
            target=_shard_main,
            args=(
                child_conn, hb, ident, self.byte_budget_bytes,
                self.fault_params,
            ),
            name=f"repro-shard-{ident}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        shard = Shard(ident, proc, parent_conn, hb)
        with self._lock:
            self._shards[ident] = shard
            self._free_list.append(shard)
            self.spawned_total += 1
            if replacement:
                self.restarts_total += 1
            self._free.notify()
        self._wal_commit({"op": "spawn", "shard": ident, "pid": proc.pid})
        self._registry.counter_inc("serve.shards.spawned_total")
        if replacement:
            self._registry.counter_inc("serve.shards.restarts_total")
        _trace.add_event(
            "shard.spawn", shard=ident, pid=proc.pid, replacement=replacement,
        )
        return shard

    # ----------------------------------------------------------------- leases
    def _checkout(self, deadline_at: float | None) -> Shard:
        """Take an idle shard, waiting up to the caller's deadline."""
        limit = time.monotonic() + CHECKOUT_TIMEOUT_S
        if deadline_at is not None:
            limit = min(limit, deadline_at)
        with self._free:
            while True:
                if self._stopping:
                    raise LeaseUnavailable("shard pool stopping")
                while self._free_list:
                    shard = self._free_list.pop(0)
                    if not shard.alive():
                        # Died idle between supervisor sweeps: reap here
                        # rather than lease a corpse.
                        self._reap_locked(shard, cause="died_idle")
                        continue
                    shard.state = "leased"
                    return shard
                remaining = limit - time.monotonic()
                if remaining <= 0:
                    raise LeaseUnavailable(
                        "no shard became free before the deadline "
                        f"(alive={len(self._shards)}, target={self.target})"
                    )
                self._free.wait(timeout=min(remaining, 0.05))

    def _checkin(self, shard: Shard) -> None:
        with self._free:
            if self._stopping:
                return
            shard.state = "idle"
            shard.jobs_done += 1
            self._free_list.append(shard)
            self._free.notify()

    def _reap_locked(self, shard: Shard, cause: str) -> None:
        """Reap a dead shard (caller holds the lock; no replacement)."""
        shard.state = "dead"
        self._shards.pop(shard.ident, None)
        self._wal_commit({
            "op": "reap", "shard": shard.ident,
            "exitcode": shard.proc.exitcode, "cause": cause,
        })
        self._registry.counter_inc("serve.shards.reaped_total")
        _trace.add_event(
            "shard.reap", shard=shard.ident, cause=cause,
            exitcode=shard.proc.exitcode,
        )

    def _reap_and_replace(self, shard: Shard, cause: str) -> int | None:
        """Owner-side death handling: reap the corpse, spawn a successor."""
        shard.proc.join(1.0)
        if shard.proc.is_alive():  # refuses to die: escalate
            shard.proc.kill()
            shard.proc.join(1.0)
        exitcode = shard.proc.exitcode
        with self._lock:
            already = shard.ident not in self._shards
            if not already:
                self._reap_locked(shard, cause=cause)
            stopping = self._stopping
        try:
            shard.conn.close()
        except OSError:
            pass
        if not already and not stopping:
            self._spawn(replacement=True)
        return exitcode

    def _orphan(self, lid: str, shard: Shard) -> None:
        self._wal_commit({"op": "orphan", "lid": lid, "shard": shard.ident})
        with self._lock:
            self.leases_orphaned += 1
        self._registry.counter_inc("serve.shards.leases_orphaned_total")
        _trace.add_event("shard.lease_orphaned", lid=lid, shard=shard.ident)

    # -------------------------------------------------------------- execution
    def run(
        self,
        seq: int,
        point,
        engine: str,
        site: str = "",
        deadline_at: float | None = None,
    ) -> SimResult:
        """Execute one point on a leased shard; raise on lost workers.

        Raises :class:`WorkerLost` (or its :class:`LeaseUnavailable`
        subclass) when the shard dies or none can be leased — the
        caller's retry ladder re-queues the job on the replacement —
        :class:`DeadlineExceeded` when the caller's budget expires
        mid-execution (the shard is killed: a process you can kill is
        the point of process isolation), :class:`ShardOverBudget` when
        the shard's own byte budget refuses the job, and
        :class:`RemoteTaskError` carrying the child-side classification
        for everything that failed *inside* a healthy shard.
        """
        site = site or f"job{seq}"
        shard = self._checkout(deadline_at)
        lid = f"l{next(self._lease_seq)}"
        self._wal_commit({
            "op": "lease", "lid": lid, "seq": seq, "shard": shard.ident,
            "site": site,
        })
        with self._lock:
            self.leases_granted += 1
        self._registry.counter_inc("serve.shards.leases_granted_total")
        hard_limit = time.monotonic() + LEASE_TIMEOUT_S
        try:
            shard.conn.send(("job", seq, site, point, engine))
        except (BrokenPipeError, OSError):
            self._orphan(lid, shard)
            exitcode = self._reap_and_replace(shard, cause="send_failed")
            raise WorkerLost(
                f"shard {shard.ident} died before job {site!r} was sent",
                shard=shard.ident, exitcode=exitcode,
                signal=_exit_signal(exitcode),
            ) from None
        while True:
            try:
                has_msg = shard.conn.poll(POLL_STEP_S)
            except (EOFError, OSError):
                has_msg = False
                shard.proc.join(0.1)
            if has_msg:
                try:
                    msg = shard.conn.recv()
                except (EOFError, OSError):
                    msg = None
                if msg is not None:
                    return self._complete(lid, shard, seq, site, msg)
            if not shard.alive():
                self._orphan(lid, shard)
                exitcode = self._reap_and_replace(shard, cause="died_leased")
                raise WorkerLost(
                    f"shard {shard.ident} died executing {site!r}",
                    shard=shard.ident, exitcode=exitcode,
                    signal=_exit_signal(exitcode),
                )
            now = time.monotonic()
            if deadline_at is not None and now >= deadline_at:
                # Cannot cancel work inside a process — but can kill the
                # process.  Recompute-vs-recover, settled by the budget.
                shard.proc.kill()
                self._orphan(lid, shard)
                self._reap_and_replace(shard, cause="deadline_kill")
                raise DeadlineExceeded(
                    f"deadline expired while {site!r} ran on shard "
                    f"{shard.ident}; shard killed"
                )
            if now >= hard_limit or (
                shard.heartbeat_age() > HEARTBEAT_TIMEOUT_S
            ):
                cause = (
                    "lease_timeout" if now >= hard_limit else "heartbeat_lost"
                )
                shard.proc.kill()
                self._orphan(lid, shard)
                exitcode = self._reap_and_replace(shard, cause=cause)
                raise WorkerLost(
                    f"shard {shard.ident} unresponsive ({cause}) during "
                    f"{site!r}; killed",
                    shard=shard.ident, exitcode=exitcode,
                    signal=_exit_signal(exitcode),
                )

    def _complete(self, lid: str, shard: Shard, seq: int, site: str, msg):
        """Close the lease and translate the child's reply."""
        self._wal_commit({"op": "release", "lid": lid})
        with self._lock:
            self.leases_released += 1
        self._checkin(shard)
        op = msg[0]
        if op == "ok" and msg[1] == seq:
            return sim_result_from_dict(msg[2])
        if op == "err" and msg[1] == seq:
            raise RemoteTaskError(msg[2], msg[3])
        if op == "over_budget" and msg[1] == seq:
            raise ShardOverBudget(shard.ident, msg[2], msg[3])
        raise RemoteTaskError(
            "exception", f"shard {shard.ident} replied out of protocol "
            f"for {site!r}: {msg!r}"
        )

    # ------------------------------------------------------------- supervisor
    def _supervise_loop(self) -> None:
        while not self._stop_event.wait(self.supervise_interval_s):
            self._sweep_idle()

    def _sweep_idle(self) -> None:
        """Reap idle shards that died or froze; keep the pool at target.

        Leased shards are exclusively the owner's problem (its poll
        loop detects death within one step), so the sweep never touches
        them — no cross-thread reap races by construction.
        """
        with self._lock:
            idle = list(self._free_list)
            stopping = self._stopping
        if stopping:
            return
        for shard in idle:
            dead = not shard.alive()
            frozen = (
                not dead and shard.heartbeat_age() > HEARTBEAT_TIMEOUT_S
            )
            if frozen:
                shard.proc.kill()
                shard.proc.join(1.0)
                dead = True
            if not dead:
                continue
            with self._lock:
                if shard not in self._free_list:
                    continue  # leased meanwhile; the owner will handle it
                self._free_list.remove(shard)
                self._reap_locked(
                    shard, cause="froze_idle" if frozen else "died_idle"
                )
            self._spawn(replacement=True)

    # ---------------------------------------------------------- introspection
    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for s in self._shards.values() if s.alive())

    def stats(self) -> dict:
        with self._lock:
            return {
                "target": self.target,
                "alive": sum(1 for s in self._shards.values() if s.alive()),
                "start_method": START_METHOD,
                "spawned_total": self.spawned_total,
                "restarts_total": self.restarts_total,
                "leases": {
                    "granted": self.leases_granted,
                    "released": self.leases_released,
                    "orphaned": self.leases_orphaned,
                },
                "wal_recoveries_total": self.wal_recoveries_total,
                "recovered_leases": len(self.recovered_leases),
            }

    def publish_gauges(self, registry=None) -> None:
        """Mirror liveness into obs gauges (single-writer: the caller)."""
        reg = registry or self._registry
        s = self.stats()
        reg.gauge_set("serve.shards.alive", float(s["alive"]))
        reg.gauge_set("serve.shards.target", float(s["target"]))


def _exit_signal(exitcode: int | None) -> int | None:
    """The signal that killed a process, from its exit code (or None)."""
    if exitcode is not None and exitcode < 0:
        return -exitcode
    return None
