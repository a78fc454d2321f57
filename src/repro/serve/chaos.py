"""Seeded chaos soak for the serving layer (``python -m repro.serve.chaos``).

The soak replays one deterministic overload story against a real
:class:`~repro.serve.service.JobService` — burst arrivals over a tiny
queue, a seeded mixed fault schedule (raise / stall / corrupt, plus a
guaranteed simulate-failure streak that trips a breaker and a stall
long enough to hang a worker), and a byte-budget pressure window —
then asserts the four serving invariants:

1. **no hung threads** — after ``stop()`` every service thread has
   exited (abandoned workers included: they wake from their stall,
   discard their result, and leave);
2. **the queue bound held** — ``high_water <= limit``, always;
3. **exact accounting** — ``ok + shed + degraded + failed +
   coalesced == submitted``: every job settled exactly once, nothing
   lost, nothing double-counted;
4. **breakers re-close** — once the fault budget is spent, probe
   traffic walks every tripped breaker open -> half-open -> closed.

**Process chaos** (``--shards N --kill-rate R``) runs the same story
through the multi-process shard pool with a seeded kill schedule —
``kill -9`` delivered to the shard hosting a job, mid-lease — and
asserts two more invariants over the write-ahead log:

5. **no orphaned leases** — after the drain every lease in the WAL is
   closed by ``release``, ``orphan``, or ``recover``: no job is still
   "running" on a shard that no longer exists;
6. **WAL replay reconstructs ticket state** — folding the log exactly
   as a restarted supervisor would (:func:`~repro.serve.shards
   .replay_wal_state`) yields, for every settled ticket, the identical
   ``(status, reason, degraded_to)`` the in-memory ticket reported —
   the log alone is sufficient to survive a supervisor crash.

**Coalescing chaos** (``--duplicate-rate R [--memo]``) rewrites the
seeded stream so a fraction R of jobs repeat an earlier job's exact
config (fresh label, fresh priority) — the millions-of-identical-users
story — and asserts three more invariants:

7. **single flight** — at most one live execution per canonical job
   key, ever (``max_live_per_key <= 1``), even across leader failures
   and promotions;
8. **results bitwise equal** — every ``ok`` or ``coalesced`` outcome
   for one canonical key encodes to the identical result payload:
   cache hits and coalesced fan-outs are indistinguishable from cold
   execution;
9. **duplicates deduped** — with a duplicate-heavy mix (R >= 0.5) the
   machinery actually bites: at least one job settled ``coalesced`` or
   from a memo hit (exact accounting, invariant 3, already includes
   the ``coalesced`` bucket).

**Overload chaos** (``--overload``) runs a different story through the
adaptive control loop (:mod:`repro.serve.adaptive`): measure the
service's clean capacity, then offer 2x that rate while a mid-stream
storm injects latency (stalls past the SLO), synchronized retry
streaks (every victim retries at once, draining the retry budget), and
— with ``--shards`` — slow-shard stalls inside child processes.  Four
more invariants:

10. **goodput floor** — jobs settled ``ok``/``degraded``/``coalesced``
    per second of the overloaded phase stay >= 70% of the measured
    clean capacity: the limiter converges on what the hardware
    sustains instead of collapsing;
11. **amplification bound** — total execution attempts <= first
    attempts x (1 + retry budget ratio): the token bucket provably
    caps retry/hedge amplification even mid-storm;
12. **limiter recovery** — after the storm passes, probe traffic
    re-opens the AIMD limit to >= 90% of its pre-storm value;
13. **hedge ledger closed** — every launched hedge is accounted won
    or lost (never double-settled), and ``max_live_per_key <= 2``
    (leader + at most one hedge).

A caller chooses the seed, the case count (>= 1) and which story runs;
the rest of the soaks' shape is the module constants below.
Everything is a pure function of ``--seed``: the job stream, the fault
schedule, the kill schedule, the pressure window, and therefore the
entire trajectory.  (The overload soak's *timing* — capacity, goodput
— is measured, not seeded; its invariants carry deliberate slack.)
CI runs two seeds; a failure dumps the obs metrics snapshot and the
soak report as a JSON artifact (``--metrics-out``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field

from ..bench.runner import GridPoint
from ..cluster.scaling import ClusterPoint
from ..cluster.topology import GEMINI
from ..machine.spec import IVY_BRIDGE, MAGNY_COURS, SANDY_BRIDGE
from ..obs.metrics import default_registry
from ..resilience.faults import FaultPlan, FaultSpec, inject_faults
from ..resilience.retry import RetryPolicy
from ..schedules.base import Variant
from .adaptive import AdaptiveConfig
from .breaker import CLOSED
from .budget import ByteBudget
from .memo import canonical_job_key, encode_result
from .service import JobService, JobSpec
from .shards import replay_wal_state

__all__ = ["SoakReport", "run_soak", "run_overload_soak", "main"]

_MACHINES = (MAGNY_COURS, IVY_BRIDGE, SANDY_BRIDGE)
_VARIANTS = (
    Variant("series", "P>=Box", "CLO"),
    Variant("shift_fuse", "P>=Box", "CLO"),
    Variant("overlapped", "P>=Box", "CLO", tile_size=16, intra_tile="shift_fuse"),
)
_BOXES = (16, 32, 64)

#: The soaks' fixed shape.  The fault soak's bursts outrun its queue,
#: so queue_full shedding is exercised.
SOAK_WORKERS = 3
SOAK_QUEUE_LIMIT = 8
SOAK_BURST = 12
SOAK_FAULT_RATE = 0.08
SOAK_HANG_TIMEOUT_S = 0.1
OVERLOAD_QUEUE_LIMIT = 32
OVERLOAD_CALIBRATION_CASES = 24
OVERLOAD_OFFERED_FACTOR = 2.0
OVERLOAD_SLO_MS = 60.0
OVERLOAD_RETRY_BUDGET_RATIO = 0.5
OVERLOAD_STORM_STALL_S = 0.08
GOODPUT_FLOOR = 0.7
RECOVERY_FLOOR = 0.9


@dataclass
class SoakReport:
    """One soak's outcome: the story, the numbers, and the verdicts."""

    seed: int
    cases: int
    stats: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "ok": self.ok,
            "invariants": self.invariants,
            "violations": self.violations,
            "stats": self.stats,
        }


def _job_stream(rng: random.Random, cases: int) -> list[JobSpec]:
    """The deterministic mixed workload: points, batches, cluster steps."""
    specs: list[JobSpec] = []
    for i in range(cases):
        machine = rng.choice(_MACHINES)
        variant = rng.choice(_VARIANTS)
        box = rng.choice(_BOXES)
        threads = rng.choice((1, 2, 4))
        roll = rng.random()
        if roll < 0.1:
            points = [
                GridPoint(variant, machine, t, box) for t in (1, 2, 4)
            ]
            specs.append(JobSpec(
                "grid", points, priority=rng.randrange(3),
                label=f"soak{i}.grid",
            ))
            continue
        if roll < 0.2:
            # A distributed step over a tiny 8-box geometry: its rank
            # compute tasks ride the same breakers/retries/shards as
            # point jobs, so every serving invariant covers them.
            point = ClusterPoint(
                variant, machine, GEMINI,
                nodes=rng.choice((2, 3, 4)), box_size=16,
                domain_cells=(32, 32, 32),
                policy=rng.choice(("surface", "round_robin", "block")),
                engine=rng.choice(("estimate", "simulate")),
            )
            specs.append(JobSpec(
                "cluster", point, priority=rng.randrange(3),
                label=f"soak{i}.cluster",
            ))
            continue
        kind = "simulate" if roll < 0.55 else "estimate"
        specs.append(JobSpec(
            kind, GridPoint(variant, machine, threads, box, engine=kind),
            priority=rng.randrange(3), label=f"soak{i}.{kind}",
        ))
    return specs


def _duplicate_stream(
    rng: random.Random, specs: list[JobSpec], duplicate_rate: float
) -> list[JobSpec]:
    """Rewrite ~``duplicate_rate`` of the stream as exact repeats.

    A duplicate copies an earlier job's (kind, payload) — the canonical
    key is therefore identical — under a fresh label and priority, so
    fault plans and queue ordering still treat it as its own arrival.
    """
    out = list(specs)
    for i in range(1, len(out)):
        if rng.random() < duplicate_rate:
            src = out[rng.randrange(i)]
            out[i] = JobSpec(
                src.kind, src.payload, priority=rng.randrange(3),
                label=f"{src.label}~dup{i}",
            )
    return out


def _fault_schedule(rng: random.Random, specs: list[JobSpec]) -> FaultPlan:
    """A seeded fault plan addressed at the soak's own job labels.

    Three ingredients: a guaranteed simulate-failure streak (trips at
    least one breaker), one stall well past the hang budget (forces a
    worker replacement), and rate-proportional random raise/corrupt
    faults sprinkled over the stream.
    """
    faults: list[FaultSpec] = [
        # Streak: consecutive simulate attempts fail until the budget
        # spends; the ladder degrades them to estimate meanwhile.
        FaultSpec(scope="serve", mode="raise", label="|simulate", count=8),
    ]
    point_jobs = [
        s for s in specs if s.kind in ("estimate", "simulate", "cluster")
    ]
    if point_jobs:
        # The first point job is taken from the initially-empty queue
        # before any shedding can occur, so this stall reliably lands
        # on a running worker and forces a replacement.
        victim = point_jobs[0]
        faults.append(FaultSpec(
            scope="serve", mode="stall", label=victim.label,
            stall_s=SOAK_HANG_TIMEOUT_S * 4, count=1,
        ))
    for s in point_jobs:
        if rng.random() < SOAK_FAULT_RATE:
            faults.append(FaultSpec(
                scope="serve", mode=rng.choice(("raise", "corrupt")),
                label=f"{s.label}|", count=1,
            ))
    return FaultPlan(faults)


def _check_duration(duration_cases: int) -> None:
    # Zero cases would submit nothing and pass every invariant vacuously.
    if duration_cases < 1:
        raise ValueError(
            f"duration_cases must be >= 1, got {duration_cases}"
        )


def run_soak(
    seed: int,
    duration_cases: int = 200,
    shards: int = 0,
    kill_rate: float = 0.0,
    wal_path: str = "",
    duplicate_rate: float = 0.0,
    memo: bool = False,
) -> SoakReport:
    """Run one seeded soak and evaluate the serving invariants.

    ``shards > 0`` routes point jobs through the multi-process
    :class:`~repro.serve.shards.ShardPool` behind a WAL (created in a
    temp dir when ``wal_path`` is empty) and evaluates invariants 5-6;
    ``kill_rate`` arms the seeded process-level kill schedule — each
    shard-side job attempt is SIGKILLed with that probability, decided
    by a pure function of ``(seed, job, attempt)`` so the trajectory
    replays exactly.

    ``duplicate_rate > 0`` rewrites that fraction of the stream as
    exact config repeats and evaluates invariants 7-9 (single flight,
    bitwise-equal results, duplicates deduped); ``memo=True`` fronts
    the service with an in-memory :class:`~repro.serve.memo.MemoStore`
    so repeats arriving after the original settled hit the cache.
    """
    _check_duration(duration_cases)
    if not 0.0 <= kill_rate <= 1.0:
        raise ValueError(f"kill_rate must be in [0, 1], got {kill_rate}")
    rng = random.Random(seed)
    specs = _job_stream(rng, duration_cases)
    if duplicate_rate > 0:
        specs = _duplicate_stream(rng, specs, duplicate_rate)
    plan = _fault_schedule(rng, specs)
    # Budget pressure: an injected probe the soak can squeeze — a
    # deterministic mid-stream window where every submission is over
    # budget and must shed with reason byte_budget.
    pressure = {"bytes": 0}
    budget = ByteBudget(1 << 20, probe=lambda: pressure["bytes"])
    window = (duration_cases // 3, duration_cases // 3 + max(4, SOAK_BURST))

    wal_file = wal_path
    if shards > 0 and not wal_file:
        wal_file = os.path.join(
            tempfile.mkdtemp(prefix="repro-chaos-"), f"soak{seed}.wal"
        )
    shard_faults = None
    if shards > 0 and kill_rate > 0:
        shard_faults = {
            "seed": seed, "rate": kill_rate,
            "scopes": ("shard",), "modes": ("kill",),
        }

    service = JobService(
        workers=SOAK_WORKERS,
        queue_limit=SOAK_QUEUE_LIMIT,
        byte_budget=budget,
        seed=seed,
        hang_timeout_s=SOAK_HANG_TIMEOUT_S,
        supervise_interval_s=0.02,
        breaker_threshold=3,
        breaker_recovery_after=2,
        breaker_probe_jitter=2,
        shards=shards,
        wal=wal_file if shards > 0 else None,
        shard_faults=shard_faults,
        memo=memo,
    )
    tickets = []
    with inject_faults(plan), service:
        for i, spec in enumerate(specs):
            pressure["bytes"] = (2 << 20) if window[0] <= i < window[1] else 0
            tickets.append(service.submit(spec))
            # Burst arrivals: only drain between bursts, so the queue
            # actually fills and queue_full shedding is exercised.
            if (i + 1) % SOAK_BURST == 0:
                for t in tickets[-SOAK_BURST:]:
                    try:
                        t.result(timeout=30.0)
                    except TimeoutError:
                        pass
        for t in tickets:
            try:
                t.result(timeout=30.0)
            except TimeoutError:
                pass
        # Invariant 4 needs post-fault probe traffic: the fault budget
        # is spent by now, so clean probes walk every tripped breaker
        # back to closed (each open breaker needs a few denials to
        # reach half-open, then one successful probe).
        probe_rounds = 0
        while probe_rounds < 200 and any(
            b.state != CLOSED for b in service.breakers().values()
        ):
            for key in sorted(service.breakers()):
                machine_name, eng = key.rsplit(":", 1)
                machine = next(m for m in _MACHINES if m.name == machine_name)
                # Probes must reach the breaker, so each round uses a
                # config no earlier job (and no earlier round) can have
                # cached — a memo hit would settle without recording
                # the success the re-close walk needs.  The stream only
                # ever uses ncomp=5, so odd ncomp values are unique.
                t = service.submit(JobSpec(
                    eng,
                    GridPoint(
                        _VARIANTS[0], machine, 1, 16,
                        ncomp=7 + probe_rounds, engine=eng,
                    ),
                    label=f"probe{probe_rounds}.{key}",
                ))
                tickets.append(t)
                try:
                    t.result(timeout=30.0)
                except TimeoutError:
                    pass
            probe_rounds += 1
    # `with service` has stopped and joined everything (the stalled
    # worker's stall is far shorter than the join timeout).
    stats = service.stats()
    report = SoakReport(seed=seed, cases=duration_cases, stats=stats)

    hung = service.census()
    report.invariants["no_hung_threads"] = not hung
    if hung:
        report.violations.append(f"threads still alive after stop: {hung}")

    q = stats["queue"]
    report.invariants["queue_bound_held"] = q["high_water"] <= q["limit"]
    if q["high_water"] > q["limit"]:
        report.violations.append(
            f"queue exceeded bound: high_water={q['high_water']} "
            f"> limit={q['limit']}"
        )

    report.invariants["accounting_exact"] = stats["accounted"]
    if not stats["accounted"]:
        report.violations.append(f"accounting mismatch: {stats['counts']}")

    open_breakers = {
        k: b["state"] for k, b in stats["breakers"].items()
        if b["state"] != CLOSED
    }
    report.invariants["breakers_reclosed"] = not open_breakers
    if open_breakers:
        report.violations.append(f"breakers still tripped: {open_breakers}")

    if duplicate_rate > 0 or memo:
        co = stats["coalesce"]
        report.invariants["single_flight"] = co["max_live_per_key"] <= 1
        if co["max_live_per_key"] > 1:
            report.violations.append(
                f"single-flight violated: {co['max_live_per_key']} live "
                f"executions observed for one canonical key"
            )

        # Bitwise equality: every successful outcome for one canonical
        # key — cold execution, memo hit, coalesced fan-out — must
        # encode to the identical result payload.  Coalesced outcomes
        # mirroring a *degraded* leader (degraded_to set) are excluded
        # exactly as degraded outcomes are: a ladder fallback value is
        # not the canonical result for the key.
        groups: dict[str, set] = {}
        for t in tickets:
            if not t.done():
                continue
            out = t.result(timeout=0.0)
            if out.status not in ("ok", "coalesced") or out.degraded_to:
                continue
            try:
                key = canonical_job_key(t.spec)
            except TypeError:
                continue
            enc = encode_result(t.spec.kind, out.value)
            if enc is None:
                continue  # no JSON codec (cluster steps)
            groups.setdefault(key, set()).add(
                json.dumps(enc, sort_keys=True)
            )
        diverged = sorted(k for k, vals in groups.items() if len(vals) > 1)
        report.invariants["results_bitwise_equal"] = not diverged
        if diverged:
            report.violations.append(
                f"{len(diverged)} canonical key(s) produced non-identical "
                f"results: {diverged[:3]}"
            )

        if duplicate_rate >= 0.5:
            memo_hits = (stats["memo"] or {}).get("hits", 0)
            deduped = stats["counts"]["coalesced"] + memo_hits
            report.invariants["duplicates_deduped"] = deduped >= 1
            if deduped < 1:
                report.violations.append(
                    f"duplicate-heavy mix (rate={duplicate_rate}) never "
                    "coalesced or hit the cache: the chaos did not bite"
                )

    if shards > 0:
        # Fold the WAL exactly as a restarted supervisor would: the
        # service has stopped and closed its handle, so this read is
        # the post-crash view — nothing but the bytes on disk.
        wal_state = replay_wal_state(wal_file)
        report.stats["wal"] = {
            "path": wal_file,
            "counts": wal_state["counts"],
            "open_leases": len(wal_state["open_leases"]),
        }

        report.invariants["no_orphaned_leases"] = not wal_state["open_leases"]
        if wal_state["open_leases"]:
            report.violations.append(
                f"{len(wal_state['open_leases'])} lease(s) still open "
                f"after drain: {sorted(wal_state['open_leases'])[:5]}"
            )

        mismatches = []
        settled_tickets = [t for t in tickets if t.done()]
        for t in settled_tickets:
            out = t.result(timeout=0.0)
            rec = wal_state["settled"].get(str(t.seq))
            expect = (out.status, out.reason, out.degraded_to)
            got = None if rec is None else (
                rec["status"], rec["reason"], rec["degraded_to"]
            )
            if got != expect:
                mismatches.append(f"seq={t.seq}: wal={got} ticket={expect}")
        replay_consistent = (
            not mismatches
            and len(wal_state["settled"]) == len(settled_tickets)
        )
        report.invariants["wal_replay_consistent"] = replay_consistent
        if not replay_consistent:
            report.violations.append(
                f"WAL replay diverges from ticket state: "
                f"{len(wal_state['settled'])} settles in log vs "
                f"{len(settled_tickets)} settled tickets; "
                + "; ".join(mismatches[:5])
            )

        if kill_rate > 0 and stats["shards"]["restarts_total"] == 0:
            report.invariants["no_orphaned_leases"] = False
            report.violations.append(
                f"kill schedule armed (rate={kill_rate}) but no shard "
                "was ever killed: the chaos did not bite"
            )
    return report


def _overload_point(i: int, engine: str = "simulate") -> GridPoint:
    """One unique point job (distinct ncomp => distinct canonical key).

    Simulate over a 288^3 domain (5832 boxes of 16^3) costs about
    10 ms on a 2-core x86 host, so the storm's 80 ms stall is a *tail*
    (about 8x typical), not a wall-clock singularity — the goodput
    floor measures convergence, not one stall's arithmetic.  The domain
    sets the job cost: shrinking it, or a faster engine, makes each
    stall a larger multiple of a job and the calibration window shorter.
    """
    return GridPoint(
        _VARIANTS[0], MAGNY_COURS, 1, 16, (288, 288, 288),
        ncomp=10_000 + i, engine=engine,
    )


def run_overload_soak(
    seed: int,
    duration_cases: int = 160,
    shards: int = 0,
) -> SoakReport:
    """Overload soak: 2x offered load, a seeded storm, four invariants.

    Three phases against one adaptive service:

    1. **Calibrate** — settle ``OVERLOAD_CALIBRATION_CASES`` clean
       unique point jobs and measure the service's sustainable rate
       (capacity);
    2. **Overload** — offer ``duration_cases`` jobs at
       ``OVERLOAD_OFFERED_FACTOR`` x capacity.  A seeded storm window in
       the middle third injects *latency* (stalls of
       ``OVERLOAD_STORM_STALL_S``, well past the SLO) on even victims and *synchronized retry
       streaks* (two raises, so every victim retries at once and
       drains the retry budget) on odd victims; with ``shards > 0``
       the stalls land inside shard child processes instead — the
       slow-shard story.  The excess load must shed at admission, the
       limiter must back off, hedges race the stalled stragglers;
    3. **Recover** — clean probe traffic until the AIMD limit climbs
       back to ``RECOVERY_FLOOR`` of its pre-storm value (bounded
       rounds, so a wedged limiter fails the invariant rather than
       hanging the soak).

    Evaluates invariants 10-13 (goodput floor, amplification bound,
    limiter recovery, hedge ledger) on top of the core four.
    """
    # The capacity measurement must be hermetic: an earlier run in this
    # process may have memoized these exact phase costs, which would
    # inflate measured capacity ~100x and poison every rate invariant.
    from ..machine.simulator import clear_phase_cost_cache

    _check_duration(duration_cases)
    clear_phase_cost_cache()
    rng = random.Random(seed)
    storm_lo = duration_cases // 3
    storm_hi = min(duration_cases, storm_lo + max(12, duration_cases // 5))
    labels = [f"ov{i:05d}" for i in range(duration_cases)]

    # The storm: every 4th job in the window stalls (latency injection
    # — about an 8x-typical tail, landing in shard children when sharded:
    # the slow-shard story), and every 4th (offset 2) raises twice in
    # a row — a synchronized retry streak that drains the retry budget.
    faults: list[FaultSpec] = []
    stall_scope = "shard" if shards > 0 else "serve"
    for i in range(storm_lo, storm_hi):
        if i % 4 == 0:
            faults.append(FaultSpec(
                scope=stall_scope, mode="stall", label=f"{labels[i]}|",
                stall_s=OVERLOAD_STORM_STALL_S, count=1,
            ))
        elif i % 4 == 2:
            faults.append(FaultSpec(
                scope="serve", mode="raise", label=f"{labels[i]}|", count=2,
            ))
    plan = FaultPlan(faults)

    cfg = AdaptiveConfig(
        slo_ms=OVERLOAD_SLO_MS,
        retry_budget_ratio=OVERLOAD_RETRY_BUDGET_RATIO,
        hedge=True,
        hedge_factor=2.0,
        hedge_min_samples=8,
        min_samples=5,
        cooldown_s=0.05,
        # Floor of 2: one slot can always race a stalled straggler, so
        # a storm cannot wedge the hedging path shut.
        min_limit=2,
    )
    service = JobService(
        workers=SOAK_WORKERS,
        queue_limit=OVERLOAD_QUEUE_LIMIT,
        default_deadline_s=10.0,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_s=0.001, max_delay_s=0.004,
        ),
        seed=seed,
        hang_timeout_s=5.0,
        supervise_interval_s=0.01,
        adaptive=cfg,
        shards=shards,
        memo=False,
    )
    good_statuses = ("ok", "degraded", "coalesced")
    with inject_faults(plan), service:
        # Phase 1: measured clean capacity (same path, same overheads).
        cal_start = time.perf_counter()
        cal = [
            service.submit(JobSpec(
                "simulate", _overload_point(-(i + 1)), label=f"cal{i:05d}",
            ))
            for i in range(OVERLOAD_CALIBRATION_CASES)
        ]
        for t in cal:
            t.result(timeout=60.0)
        cal_wall = max(1e-6, time.perf_counter() - cal_start)
        capacity = OVERLOAD_CALIBRATION_CASES / cal_wall

        # Phase 2: offered load at OVERLOAD_OFFERED_FACTOR x capacity.
        inter_arrival = 1.0 / (OVERLOAD_OFFERED_FACTOR * capacity)
        pre_storm_limit = None
        limiter = service._limiter
        main_tickets = []
        main_start = time.perf_counter()
        next_at = main_start
        for i in range(duration_cases):
            if i == storm_lo and limiter is not None:
                pre_storm_limit = limiter.limit
            main_tickets.append(service.submit(JobSpec(
                "simulate", _overload_point(i),
                priority=rng.randrange(3), label=labels[i],
            )))
            next_at += inter_arrival
            delay = next_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        for t in main_tickets:
            try:
                t.result(timeout=60.0)
            except TimeoutError:
                pass
        main_wall = max(1e-6, time.perf_counter() - main_start)
        if pre_storm_limit is None and limiter is not None:
            pre_storm_limit = limiter.max_limit

        # Phase 3: clean recovery traffic until the limit re-opens
        # (bounded, so a wedged limiter fails fast instead of looping).
        recovery_rounds = 0
        recovered_limit = None if limiter is None else limiter.limit
        while (
            limiter is not None
            and recovery_rounds < 120
            and limiter.limit < RECOVERY_FLOOR * (pre_storm_limit or 1)
        ):
            batch = [
                service.submit(JobSpec(
                    "simulate",
                    _overload_point(
                        100_000 + recovery_rounds * SOAK_WORKERS * 2 + j
                    ),
                    label=f"rec{recovery_rounds:04d}.{j}",
                ))
                for j in range(SOAK_WORKERS * 2)
            ]
            for t in batch:
                try:
                    t.result(timeout=60.0)
                except TimeoutError:
                    pass
            recovered_limit = limiter.limit
            recovery_rounds += 1

    stats = service.stats()
    good = sum(1 for t in main_tickets if t.done() and t.result(0).status in good_statuses)
    goodput = good / main_wall
    report = SoakReport(
        seed=seed, cases=duration_cases, stats=stats,
    )
    ad = stats["adaptive"] or {}
    report.stats["overload"] = {
        "capacity_per_s": round(capacity, 2),
        "offered_per_s": round(OVERLOAD_OFFERED_FACTOR * capacity, 2),
        "goodput_per_s": round(goodput, 2),
        "goodput_ratio": round(goodput / capacity, 4),
        "good_settles": good,
        "main_wall_s": round(main_wall, 4),
        "pre_storm_limit": pre_storm_limit,
        "recovered_limit": recovered_limit,
        "recovery_rounds": recovery_rounds,
        "storm_window": [storm_lo, storm_hi],
        "stall_scope": stall_scope,
    }

    hung = service.census()
    report.invariants["no_hung_threads"] = not hung
    if hung:
        report.violations.append(f"threads still alive after stop: {hung}")

    q = stats["queue"]
    report.invariants["queue_bound_held"] = q["high_water"] <= q["limit"]
    if q["high_water"] > q["limit"]:
        report.violations.append(
            f"queue exceeded bound: high_water={q['high_water']} "
            f"> limit={q['limit']}"
        )

    report.invariants["accounting_exact"] = stats["accounted"]
    if not stats["accounted"]:
        report.violations.append(f"accounting mismatch: {stats['counts']}")

    # 10. Goodput floor under 2x offered load.
    report.invariants["goodput_floor"] = goodput >= GOODPUT_FLOOR * capacity
    if goodput < GOODPUT_FLOOR * capacity:
        report.violations.append(
            f"goodput collapsed under overload: {goodput:.1f}/s < "
            f"{GOODPUT_FLOOR:.0%} of measured capacity {capacity:.1f}/s"
        )

    # 11. Amplification bound: attempts <= units * (1 + ratio).
    amp_ok = service.amplification_ok() and all(
        b["units"] + b["spent"]
        <= b["units"] * (1.0 + b["ratio"]) + 1e-9
        for b in ad.get("retry_budgets", {}).values()
    )
    report.invariants["amplification_bounded"] = amp_ok
    if not amp_ok:
        report.violations.append(
            f"retry amplification exceeded the budget bound: "
            f"attempts={ad.get('attempts')} units={ad.get('attempt_units')} "
            f"ratio={OVERLOAD_RETRY_BUDGET_RATIO} "
            f"budgets={ad.get('retry_budgets')}"
        )

    # 12. Limiter re-opens after the storm.
    recovered = (
        pre_storm_limit is None
        or (recovered_limit or 0) >= RECOVERY_FLOOR * pre_storm_limit
    )
    report.invariants["limiter_recovered"] = recovered
    if not recovered:
        report.violations.append(
            f"limiter stuck after storm: limit={recovered_limit} < "
            f"{RECOVERY_FLOOR:.0%} of pre-storm {pre_storm_limit} "
            f"after {recovery_rounds} recovery rounds"
        )

    # 13. Hedge ledger closed + bounded single-flight under hedging.
    hedges = ad.get("hedges", {})
    ledger_ok = (
        hedges.get("launched", 0)
        == hedges.get("won", 0) + hedges.get("lost", 0)
    )
    max_live = stats["coalesce"]["max_live_per_key"]
    report.invariants["hedge_ledger_closed"] = ledger_ok and max_live <= 2
    if not ledger_ok:
        report.violations.append(f"hedge ledger does not close: {hedges}")
    if max_live > 2:
        report.violations.append(
            f"hedging broke the single-flight bound: "
            f"max_live_per_key={max_live} > 2"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Seeded chaos soak over the repro.serve layer.",
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--duration-cases", type=int, default=200)
    parser.add_argument(
        "--shards", type=int, default=0,
        help="run point jobs on N process shards (arms invariants 5-6)",
    )
    parser.add_argument(
        "--kill-rate", type=float, default=0.0,
        help="seeded probability a shard-side job attempt is SIGKILLed",
    )
    parser.add_argument(
        "--wal", default="",
        help="write-ahead log path (default: a temp file when --shards)",
    )
    parser.add_argument(
        "--duplicate-rate", type=float, default=0.0,
        help="fraction of the stream rewritten as exact config repeats "
             "(arms invariants 7-9)",
    )
    parser.add_argument(
        "--memo", action="store_true",
        help="front the service with an in-memory memo store",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="run the adaptive overload soak instead of the fault soak "
             "(arms invariants 10-13: goodput floor, amplification "
             "bound, limiter recovery, hedge ledger)",
    )
    parser.add_argument(
        "--metrics-out", default="",
        help="write the obs metrics snapshot + soak report JSON here",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.duplicate_rate <= 1.0:
        parser.error(
            f"--duplicate-rate must be in [0, 1], got {args.duplicate_rate}"
        )
    if args.shards < 1 and (args.kill_rate > 0 or args.wal):
        parser.error("--kill-rate/--wal require --shards >= 1")

    try:
        if args.overload:
            report = run_overload_soak(
                args.seed,
                duration_cases=args.duration_cases,
                shards=args.shards,
            )
        else:
            report = run_soak(
                args.seed,
                duration_cases=args.duration_cases,
                shards=args.shards,
                kill_rate=args.kill_rate,
                wal_path=args.wal,
                duplicate_rate=args.duplicate_rate,
                memo=args.memo,
            )
    except ValueError as exc:
        # A numeric range the soaks or the service's constructors own
        # (--duration-cases, --kill-rate, --shards, ...), checked there once.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.metrics_out:
        payload = {
            "report": report.to_dict(),
            "metrics": default_registry().snapshot(),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=str)
    counts = report.stats["counts"]
    if args.overload:
        ov = report.stats["overload"]
        ad = report.stats.get("adaptive") or {}
        print(
            f"overload soak seed={report.seed} cases={report.cases}: "
            f"submitted={counts['submitted']} ok={counts['ok']} "
            f"shed={counts['shed']} degraded={counts['degraded']} "
            f"failed={counts['failed']} coalesced={counts['coalesced']}"
        )
        print(
            f"  capacity={ov['capacity_per_s']}/s "
            f"offered={ov['offered_per_s']}/s "
            f"goodput={ov['goodput_per_s']}/s "
            f"({ov['goodput_ratio']:.0%} of capacity)"
        )
        print(
            f"  limiter: pre_storm={ov['pre_storm_limit']} "
            f"recovered={ov['recovered_limit']} "
            f"rounds={ov['recovery_rounds']}  hedges={ad.get('hedges')}  "
            f"attempts={ad.get('attempts')}/{ad.get('attempt_units')} units"
        )
    else:
        print(
            f"chaos soak seed={report.seed} cases={report.cases}: "
            f"submitted={counts['submitted']} ok={counts['ok']} "
            f"shed={counts['shed']} degraded={counts['degraded']} "
            f"failed={counts['failed']} coalesced={counts['coalesced']} "
            f"replaced_workers={report.stats['workers']['replaced']}"
        )
        co = report.stats.get("coalesce") or {}
        ms = report.stats.get("memo")
        if co.get("coalesced") or co.get("promotions") or ms:
            hits = (ms or {}).get("hits", 0)
            misses = (ms or {}).get("misses", 0)
            print(
                f"  coalesce: coalesced={co.get('coalesced', 0)} "
                f"promotions={co.get('promotions', 0)} "
                f"max_live_per_key={co.get('max_live_per_key', 0)} "
                f"memo_hits={hits} memo_misses={misses}"
            )
        sh = report.stats.get("shards")
        if sh:
            wal = report.stats.get("wal", {})
            print(
                f"  shards: target={sh['target']} "
                f"spawned={sh['spawned_total']} "
                f"restarts={sh['restarts_total']} "
                f"leases={sh['leases']['granted']} "
                f"orphaned={sh['leases']['orphaned']} "
                f"wal_settles={wal.get('counts', {}).get('settles', 0)}"
            )
    for name, held in report.invariants.items():
        print(f"  invariant {name}: {'PASS' if held else 'FAIL'}")
    if not report.ok:
        for v in report.violations:
            print(f"  violation: {v}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
