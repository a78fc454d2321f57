"""Adaptive overload control: limiter, budgets, brownout, hedging.

The unit tests drive :mod:`repro.serve.adaptive` on fake clocks so
every AIMD transition is a deterministic replay; the service tests pin
fault schedules with explicit :class:`FaultPlan`s, exactly like
``test_serve_service.py``.
"""

import random
import threading
import time

import pytest

from repro.bench.runner import GridPoint
from repro.machine.spec import IVY_DESKTOP
from repro.resilience.faults import FaultPlan, FaultSpec, inject_faults
from repro.resilience.retry import NO_RETRY, RetryPolicy
from repro.schedules import Variant
from repro.serve import (
    AdaptiveConfig,
    AdaptiveLimiter,
    JobService,
    JobSpec,
    JobTicket,
    LatencyTracker,
    RetryBudget,
    canonical_job_key,
)
from repro.serve.service import _ShedJob

from .test_serve_shards import SettleProbeWAL

DOMAIN = (32, 32, 32)


def point(threads=1, box=16, engine="estimate", ncomp=5):
    return GridPoint(
        Variant("series"), IVY_DESKTOP, threads, box, DOMAIN,
        ncomp=ncomp, engine=engine,
    )


def quiet():
    """An empty fault plan: shields the test from ambient fault seeds."""
    return inject_faults(FaultPlan([]))


def wait_until(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


class TestLatencyTracker:
    def test_cold_kind_reports_none(self):
        lt = LatencyTracker(min_samples=3)
        lt.observe("estimate", 0.01)
        lt.observe("estimate", 0.01)
        assert lt.ewma_s("estimate") is None
        assert lt.p95_s("estimate") is None
        lt.observe("estimate", 0.01)
        assert lt.ewma_s("estimate") == pytest.approx(0.01)

    def test_ewma_tracks_recent_samples(self):
        lt = LatencyTracker(min_samples=1, alpha=0.5)
        for _ in range(20):
            lt.observe("simulate", 0.001)
        for _ in range(20):
            lt.observe("simulate", 0.1)
        assert lt.ewma_s("simulate") > 0.05

    def test_p95_sits_in_the_tail(self):
        lt = LatencyTracker(window=64, min_samples=1)
        for _ in range(19):
            lt.observe("grid", 0.001)
        lt.observe("grid", 1.0)
        p95 = lt.p95_s("grid")
        assert p95 == pytest.approx(1.0)

    def test_kinds_are_independent(self):
        lt = LatencyTracker(min_samples=1)
        lt.observe("estimate", 0.001)
        assert lt.ewma_s("simulate") is None
        assert lt.samples("estimate") == 1
        snap = lt.snapshot()
        assert set(snap) == {"estimate"}
        assert snap["estimate"]["samples"] == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt=1.0):
        self.now += dt


class TestAdaptiveLimiter:
    def saturated(self, lim):
        """Acquire until the limiter refuses; returns the slot count."""
        held = 0
        while lim.inflight < lim.limit and lim.acquire(timeout=0):
            held += 1
        return held

    def test_acquire_blocks_at_limit_and_release_wakes(self):
        lim = AdaptiveLimiter(max_limit=2)
        assert lim.acquire(timeout=0)
        assert lim.acquire(timeout=0)
        assert not lim.acquire(timeout=0.01)
        lim.release()
        assert lim.acquire(timeout=0)
        lim.release(), lim.release()
        assert lim.inflight == 0

    def test_breach_backs_off_multiplicatively_to_floor(self):
        clock = FakeClock()
        lim = AdaptiveLimiter(
            max_limit=8, min_limit=2, decrease=0.5, cooldown_s=0.1,
            clock=clock,
        )
        clock.tick()
        lim.on_result(1.0, ok=False, breach=True)
        assert lim.limit == 4
        clock.tick()
        lim.on_result(1.0, ok=False, breach=True)
        assert lim.limit == 2
        clock.tick()
        lim.on_result(1.0, ok=False, breach=True)
        assert lim.limit == 2  # hard floor
        assert lim.backoffs == 3

    def test_cooldown_coalesces_a_burst_into_one_backoff(self):
        clock = FakeClock()
        lim = AdaptiveLimiter(max_limit=8, cooldown_s=10.0, clock=clock)
        clock.tick()
        lim.on_result(1.0, ok=False, breach=True)
        lim.on_result(1.0, ok=False, breach=True)
        lim.on_result(1.0, ok=False, breach=True)
        assert lim.backoffs == 1
        assert lim.limit == 4

    def test_probe_up_requires_saturation(self):
        clock = FakeClock()
        lim = AdaptiveLimiter(max_limit=8, min_limit=1, clock=clock)
        clock.tick()
        lim.on_result(1.0, ok=False, breach=True)  # limit -> 4
        assert lim.limit == 4
        # Unsaturated successes do not probe.
        lim.on_result(0.001, ok=True, breach=False)
        assert lim.probes == 0
        # Saturated successes do.
        held = self.saturated(lim)
        assert held == 4
        lim.on_result(0.001, ok=True, breach=False)
        assert lim.probes == 1
        assert lim.limit_raw > 4.0
        for _ in range(held):
            lim.release()

    def test_recovers_to_ceiling_under_sustained_success(self):
        clock = FakeClock()
        lim = AdaptiveLimiter(max_limit=6, clock=clock)
        clock.tick()
        lim.on_result(1.0, ok=False, breach=True)
        for _ in range(200):
            clock.tick()
            held = self.saturated(lim)
            lim.on_result(0.001, ok=True, breach=False)
            for _ in range(held):
                lim.release()
        assert lim.limit == 6

    def test_on_shed_backs_off_and_on_change_mirrors(self):
        clock = FakeClock()
        seen = []
        lim = AdaptiveLimiter(
            max_limit=8, clock=clock, on_change=seen.append
        )
        clock.tick()
        lim.on_shed()
        assert lim.limit == 4
        assert seen == [4.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(max_limit=0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(max_limit=2, min_limit=4)


class TestRetryBudget:
    def test_deposit_banks_ratio_and_caps(self):
        b = RetryBudget(ratio=0.5, cap=1.0)
        for _ in range(10):
            b.deposit()
        assert b.tokens() == pytest.approx(1.0)  # capped
        assert b.units == 10

    def test_spend_denied_below_one_token(self):
        b = RetryBudget(ratio=0.4)
        b.deposit()
        assert not b.try_spend()
        assert b.denied == 1
        b.deposit()
        b.deposit()  # 1.2 tokens banked
        assert b.try_spend()
        assert not b.try_spend()
        assert b.spent == 1 and b.denied == 2

    def test_amplification_bound_over_seeded_stream(self):
        rng = random.Random(2014)
        b = RetryBudget(ratio=0.3, cap=4.0)
        for _ in range(500):
            if rng.random() < 0.7:
                b.deposit()
            else:
                b.try_spend()
            assert b.tokens() >= 0.0
            assert b.amplification_bound_ok()
        assert b.units + b.spent <= b.units * 1.3 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(cap=0.0)


class TestAdaptiveConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(min_limit=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(max_limit=1, min_limit=2)
        with pytest.raises(ValueError):
            AdaptiveConfig(decrease=1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(increase=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(retry_budget_ratio=-1.0)

    def test_slo_per_kind_override(self):
        cfg = AdaptiveConfig(slo_ms=100.0, slo_by_kind={"grid": 2000.0})
        assert cfg.slo_s("estimate") == pytest.approx(0.1)
        assert cfg.slo_s("grid") == pytest.approx(2.0)


class TestServiceAdaptive:
    def test_limiter_gauges_and_stats_published(self):
        cfg = AdaptiveConfig(slo_ms=10_000.0)
        with quiet(), JobService(workers=2, adaptive=cfg) as svc:
            for i in range(4):
                out = svc.submit(
                    JobSpec("estimate", point(ncomp=5 + i))
                ).result(timeout=30.0)
                assert out.status == "ok"
            stats = svc.stats()
        ad = stats["adaptive"]
        assert ad["limiter"]["max_limit"] == 2
        assert 1 <= ad["limiter"]["limit"] <= 2
        assert ad["latency"]["estimate"]["samples"] == 4
        assert ad["attempts"] == 4
        assert ad["attempt_units"] == 4
        assert ad["amplification_ok"]

    def test_slo_breach_backs_the_limit_off(self):
        cfg = AdaptiveConfig(slo_ms=0.0001, cooldown_s=0.0)
        with quiet(), JobService(workers=4, adaptive=cfg) as svc:
            for i in range(8):
                svc.submit(JobSpec("estimate", point(ncomp=5 + i))).result(
                    timeout=30.0
                )
            stats = svc.stats()
        lim = stats["adaptive"]["limiter"]
        assert lim["backoffs"] >= 1
        assert lim["limit"] == 1

    def test_brownout_sheds_an_unmeetable_deadline_at_admission(self):
        cfg = AdaptiveConfig(slo_ms=10_000.0, min_samples=2, brownout=True)
        with quiet(), JobService(workers=1, adaptive=cfg) as svc:
            for i in range(3):
                svc.submit(JobSpec("estimate", point(ncomp=5 + i))).result(
                    timeout=30.0
                )
            out = svc.submit(JobSpec(
                "estimate", point(ncomp=30), deadline_s=1e-7,
            )).result(timeout=30.0)
            stats = svc.stats()
        assert out.status == "shed"
        assert out.value.reason == "brownout"
        assert stats["shed_reasons"].get("brownout") == 1
        assert stats["accounted"]

    def test_brownout_disabled_admits_the_same_job(self):
        cfg = AdaptiveConfig(slo_ms=10_000.0, min_samples=2, brownout=False)
        with quiet(), JobService(workers=1, adaptive=cfg) as svc:
            for i in range(3):
                svc.submit(JobSpec("estimate", point(ncomp=5 + i))).result(
                    timeout=30.0
                )
            out = svc.submit(JobSpec(
                "estimate", point(ncomp=30), deadline_s=1e-7,
            )).result(timeout=30.0)
        # The job is admitted; it can only die *after* admission.
        assert not (
            out.status == "shed" and out.value.reason == "brownout"
        )

    def test_retry_budget_denial_is_breaker_exempt(self):
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="raise", label="rb|", count=2),
        ])
        cfg = AdaptiveConfig(slo_ms=10_000.0, retry_budget_ratio=0.0)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.001, max_delay_s=0.002
        )
        with inject_faults(plan), JobService(
            workers=1, adaptive=cfg, retry_policy=policy,
        ) as svc:
            out = svc.submit(
                JobSpec("estimate", point(), label="rb")
            ).result(timeout=30.0)
            stats = svc.stats()
        assert out.status == "failed"
        assert out.reason == "retry_budget"
        rb = stats["adaptive"]["retry_budgets"]["ivy_desktop:estimate"]
        assert rb["denied"] >= 1 and rb["spent"] == 0
        # Budget exhaustion is a load signal, not an engine fault.
        br = stats["breakers"]["ivy_desktop:estimate"]
        assert br["state"] == "closed"
        assert br["consecutive_failures"] == 0
        assert stats["accounted"]

    def test_retry_budget_allows_funded_retries(self):
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="raise", label="ok|", count=1),
        ])
        cfg = AdaptiveConfig(slo_ms=10_000.0, retry_budget_ratio=1.0)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.001, max_delay_s=0.002
        )
        with inject_faults(plan), JobService(
            workers=1, adaptive=cfg, retry_policy=policy,
        ) as svc:
            out = svc.submit(
                JobSpec("estimate", point(), label="ok")
            ).result(timeout=30.0)
            stats = svc.stats()
        assert out.status == "ok"
        rb = stats["adaptive"]["retry_budgets"]["ivy_desktop:estimate"]
        assert rb["spent"] == 1
        assert stats["adaptive"]["amplification_ok"]


def hedging_service(extra_faults=(), workers=2, wal=None, **cfg_kw):
    """A hedging-armed service plus the stall plan for one leader."""
    kw = dict(
        slo_ms=10_000.0, min_samples=2, hedge=True, hedge_factor=1.0,
        hedge_min_samples=2, retry_budget_ratio=1.0, brownout=False,
    )
    kw.update(cfg_kw)
    cfg = AdaptiveConfig(**kw)
    plan = FaultPlan([
        FaultSpec(
            scope="serve", mode="stall", label="lead|", stall_s=0.4,
            count=1,
        ),
        *extra_faults,
    ])
    svc = JobService(
        workers=workers, adaptive=cfg, supervise_interval_s=0.01,
        hang_timeout_s=30.0, wal=wal,
    )
    return svc, plan


def warm(svc, n=4):
    for i in range(n):
        out = svc.submit(
            JobSpec("estimate", point(ncomp=10 + i), label=f"warm{i}")
        ).result(timeout=30.0)
        assert out.status == "ok"


class TestHedging:
    def test_hedge_rescues_a_stalled_leader(self):
        svc, plan = hedging_service()
        with inject_faults(plan), svc:
            warm(svc)
            t0 = time.monotonic()
            out = svc.submit(
                JobSpec("estimate", point(), label="lead")
            ).result(timeout=30.0)
            elapsed = time.monotonic() - t0
            # The loser is cancelled and accounted asynchronously.
            assert wait_until(
                lambda: svc.hedges["won"] + svc.hedges["lost"]
                >= svc.hedges["launched"]
            )
            stats = svc.stats()
        assert out.status == "ok"
        assert elapsed < 0.35  # settled by the hedge, not the 0.4s stall
        hg = stats["adaptive"]["hedges"]
        assert hg["launched"] == 1
        assert hg["won"] + hg["lost"] == hg["launched"]
        assert hg["won"] == 1
        assert stats["coalesce"]["max_live_per_key"] <= 2
        assert stats["adaptive"]["amplification_ok"]
        assert stats["accounted"]

    def test_hedge_race_commits_one_settle_before_waking(self, tmp_path):
        wal = SettleProbeWAL(str(tmp_path / "hedge.wal"))
        svc, plan = hedging_service(wal=wal)
        with inject_faults(plan), svc:
            for i in range(4):
                spec = JobSpec("estimate", point(ncomp=10 + i), label=f"w{i}")
                assert wal.submit(svc, spec).result(timeout=30.0).status == "ok"
            lead = wal.submit(svc, JobSpec("estimate", point(), label="lead"))
            assert lead.result(timeout=30.0).status == "ok"
            assert wait_until(
                lambda: svc.hedges["won"] + svc.hedges["lost"]
                >= svc.hedges["launched"]
            )
            assert svc.hedges["launched"] == 1
        assert sorted(wal.settle_seqs) == sorted(wal.tickets)
        assert wal.awake_at_commit == [False] * len(wal.tickets)
        wal.close()

    def test_hedge_launch_respects_the_retry_budget(self):
        svc, plan = hedging_service(retry_budget_ratio=0.0)
        with inject_faults(plan), svc:
            warm(svc)
            out = svc.submit(
                JobSpec("estimate", point(), label="lead")
            ).result(timeout=30.0)
            stats = svc.stats()
        assert out.status == "ok"  # the stall completes normally
        hg = stats["adaptive"]["hedges"]
        assert hg["launched"] == 0
        assert hg["denied"] >= 1
        assert stats["accounted"]

    def test_cold_service_never_hedges(self):
        svc, plan = hedging_service(hedge_min_samples=50)
        with inject_faults(plan), svc:
            warm(svc)
            out = svc.submit(
                JobSpec("estimate", point(), label="lead")
            ).result(timeout=30.0)
            stats = svc.stats()
        assert out.status == "ok"
        assert stats["adaptive"]["hedges"]["launched"] == 0


    def test_duplicate_behind_a_superseded_leader_counts_two_live(self):
        """A leader's live slot closes when its *ticket* settles.

        The hedge wins while the leader's worker is still inside its
        stall; a duplicate arrives, stalls and is hedged too.  Three
        executions are then really running, but the superseded one left
        the ledger with its ticket: leader + hedge is the most the
        ledger ever shows, and both hedges are accounted.
        """
        dup_stall = FaultSpec(
            scope="serve", mode="stall", label="dup|", stall_s=0.4, count=1,
        )
        svc, plan = hedging_service(extra_faults=[dup_stall], workers=3)
        with inject_faults(plan), svc:
            warm(svc)
            t0 = time.monotonic()
            lead = svc.submit(
                JobSpec("estimate", point(), label="lead")
            ).result(timeout=30.0)
            assert svc.hedges["won"] == 1
            dup = svc.submit(
                JobSpec("estimate", point(), label="dup")
            ).result(timeout=30.0)
            # Both settled inside the first leader's 0.4 s stall.
            assert time.monotonic() - t0 < 0.4
            assert wait_until(
                lambda: svc.hedges["won"] + svc.hedges["lost"]
                >= svc.hedges["launched"]
            )
            stats = svc.stats()
        assert lead.status == "ok" and dup.status == "ok"
        hg = stats["adaptive"]["hedges"]
        assert hg["launched"] == 2 and hg["won"] + hg["lost"] == 2
        assert stats["coalesce"]["max_live_per_key"] == 2
        assert stats["adaptive"]["amplification_ok"]
        assert stats["accounted"]


class TestOneRunPath:
    """A primary and a hedge are one run path with two inputs.

    Driven through ``_run_job`` on a service that was never started, so
    each ticket runs exactly when the test says.
    """

    def service(self):
        return JobService(workers=1, retry_policy=NO_RETRY, adaptive=True)

    def primary_and_hedge(self, label):
        """A primary ticket, and a hedge racing a second, idle primary."""
        spec = JobSpec("estimate", point(), label=label)
        primary, raced = JobTicket(0, spec, None), JobTicket(1, spec, None)
        hedge = JobTicket(2, spec, None)
        hedge.label = f"{label}~hedge"
        hedge.hedge_of = raced
        hedge.memo_key = canonical_job_key(spec)
        return primary, hedge

    @pytest.mark.parametrize("mode", [None, "raise", "corrupt"])
    def test_one_fault_plan_same_outcome_either_way(self, mode):
        faults = [] if mode is None else [
            FaultSpec(scope="serve", mode=mode, label="twin", count=10),
        ]
        svc = self.service()
        primary, hedge = self.primary_and_hedge("twin")
        with inject_faults(FaultPlan(faults)):
            svc._run_job(hedge, None)
            svc._run_job(primary, None)
        outs = [t.result(timeout=0) for t in (primary, hedge)]
        shape = [
            (o.status, o.reason, [f.kind for f in o.failures]) for o in outs
        ]
        assert shape[0] == shape[1]
        assert shape[0][0] == ("ok" if mode is None else "failed")
        assert svc.hedges == {
            "launched": 0, "denied": 0,
            "won": int(mode is None), "lost": int(mode is not None),
        }
        assert svc.attempts == 2 and svc.hedge_attempts == 1
        assert svc._live_keys == {}

    def test_a_shed_hedge_reports_to_the_limiter_a_shed_primary_does_not(self):
        svc = self.service()
        primary, hedge = self.primary_and_hedge("refused")
        observed = []
        observe = svc._observe_outcome

        def refuse(job):
            raise _ShedJob("byte_budget", "refused below the run path")

        def record(job, outcome):
            observed.append((job.label, outcome.status, outcome.elapsed_s > 0))
            observe(job, outcome)

        svc._execute, svc._observe_outcome = refuse, record
        with quiet():
            svc._run_job(hedge, None)
            svc._run_job(primary, None)
        assert observed == [("refused~hedge", "shed", True)]
        out = primary.result(timeout=0)
        assert (out.status, out.value.reason) == ("shed", "byte_budget")
        assert svc.hedges["lost"] == 1 and svc.shed_reasons == {"byte_budget": 1}
        assert svc._live_keys == {}


class TestSingleFlightHedgeStress:
    def test_two_thread_fanout_never_exceeds_two_live(self):
        """Satellite stress: hedging + coalescing from two submitters.

        Two threads hammer the same canonical key while some leaders
        stall long enough to hedge; whatever the interleaving, at most
        leader + hedge are ever live for the key, every ticket settles
        exactly once, and the hedge ledger closes.
        """
        stalls = [
            FaultSpec(
                scope="serve", mode="stall", label=f"st{i}|",
                stall_s=0.15, count=1,
            )
            for i in range(4)
        ]
        svc, plan = hedging_service(extra_faults=stalls)
        rounds = 6
        outs = [[], []]

        def submitter(slot):
            for r in range(rounds):
                # Same point every round -> same canonical key; the
                # round-robin labels arm a stall on some leaders.
                t = svc.submit(JobSpec(
                    "estimate", point(), label=f"st{(r + slot) % 8}",
                ))
                outs[slot].append(t.result(timeout=30.0))

        with inject_faults(plan), svc:
            warm(svc)
            threads = [
                threading.Thread(target=submitter, args=(s,))
                for s in (0, 1)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
                assert not th.is_alive()
            assert wait_until(
                lambda: svc.hedges["won"] + svc.hedges["lost"]
                >= svc.hedges["launched"]
            )
            stats = svc.stats()
        settled = outs[0] + outs[1]
        assert len(settled) == 2 * rounds
        assert all(
            o.status in ("ok", "coalesced", "degraded") for o in settled
        )
        counts = stats["counts"]
        assert counts["submitted"] == 2 * rounds + 4  # + warm-up
        assert stats["accounted"]
        assert stats["coalesce"]["max_live_per_key"] <= 2
        hg = stats["adaptive"]["hedges"]
        assert hg["launched"] == hg["won"] + hg["lost"]
        assert stats["adaptive"]["amplification_ok"]

    def test_waiter_deadline_sweep_unaffected_by_live_hedge(self):
        """Expiring coalesced waiters must not disturb a live hedge race.

        The leader and its hedge both stall past the waiters' deadline:
        the sweep sheds the waiters as ``deadline`` while the hedge is
        live, and the leader still settles through whichever racer
        finishes — with exact accounting throughout.
        """
        hedge_stall = FaultSpec(
            scope="serve", mode="stall", label="~hedge|", stall_s=0.4,
            count=1,
        )
        svc, plan = hedging_service(extra_faults=[hedge_stall])
        with inject_faults(plan), svc:
            warm(svc)
            leader = svc.submit(JobSpec(
                "estimate", point(), label="lead", deadline_s=30.0,
            ))
            assert wait_until(
                lambda: svc.stats()["adaptive"]["hedges"]["launched"] == 1,
                timeout=5.0,
            )
            waiters = [
                svc.submit(JobSpec(
                    "estimate", point(), label=f"wait{i}", deadline_s=0.05,
                ))
                for i in range(3)
            ]
            wouts = [w.result(timeout=30.0) for w in waiters]
            lead_out = leader.result(timeout=30.0)
            assert wait_until(
                lambda: svc.hedges["won"] + svc.hedges["lost"]
                >= svc.hedges["launched"]
            )
            stats = svc.stats()
        assert lead_out.status == "ok"
        assert all(w.status == "shed" for w in wouts)
        assert all(w.value.reason == "deadline" for w in wouts)
        hg = stats["adaptive"]["hedges"]
        assert hg["launched"] == 1
        assert hg["won"] + hg["lost"] == 1
        assert stats["coalesce"]["max_live_per_key"] <= 2
        assert stats["accounted"]
