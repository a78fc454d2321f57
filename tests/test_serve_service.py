"""JobService: admission, shedding, deadlines, breakers, supervision.

Every scenario pins its fault schedule with an explicit
:class:`FaultPlan` (which also neutralizes any ambient
``REPRO_FAULT_SEED`` plan inside the ``with`` block), runs one worker
where ordering matters, and submits jobs one at a time — so each test
is a deterministic replay.
"""

import random
import time

import pytest

from repro.bench.runner import GridPoint, run_grid
from repro.machine.spec import IVY_DESKTOP, MAGNY_COURS
from repro.resilience.faults import FaultPlan, FaultSpec, inject_faults
from repro.resilience.journal import (
    GridJournal,
    grid_hash,
    point_key,
    sim_result_to_dict,
)
from repro.resilience.retry import NO_RETRY
from repro.schedules import Variant
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    ByteBudget,
    JobService,
    JobSpec,
    Rejected,
    serve_grid,
)

DOMAIN = (32, 32, 32)


def point(threads=1, box=16, engine="estimate", machine=IVY_DESKTOP):
    return GridPoint(
        Variant("series"), machine, threads, box, DOMAIN, engine=engine
    )


def quiet():
    """An empty fault plan: shields the test from ambient fault seeds."""
    return inject_faults(FaultPlan([]))


def settle(service, spec, timeout=30.0):
    return service.submit(spec).result(timeout=timeout)


def wait_until(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


class TestHappyPath:
    def test_engine_job_matches_direct_evaluation(self):
        p = point()
        with quiet(), JobService(workers=2) as svc:
            out = settle(svc, JobSpec("estimate", p))
        assert out.status == "ok"
        assert sim_result_to_dict(out.value) == sim_result_to_dict(p.evaluate())

    def test_grid_batch_matches_run_grid(self):
        points = [point(t, b) for t in (1, 2) for b in (16, 32)]
        with quiet():
            direct = run_grid(points)
            with JobService(workers=2) as svc:
                served = serve_grid(points, svc, batch=True)
        assert [sim_result_to_dict(r) for r in served] == [
            sim_result_to_dict(r) for r in direct
        ]

    def test_per_point_routing_matches_run_grid(self):
        points = [point(t, b) for t in (1, 2) for b in (16, 32)]
        with quiet():
            direct = run_grid(points)
            with JobService(workers=2) as svc:
                served = serve_grid(points, svc, batch=False)
        assert [sim_result_to_dict(r) for r in served] == [
            sim_result_to_dict(r) for r in direct
        ]
        assert svc.stats()["counts"]["ok"] == len(points)

    def test_accounting_is_exact(self):
        with quiet(), JobService(workers=2) as svc:
            for _ in range(6):
                settle(svc, JobSpec("estimate", point()))
        assert svc.accounted()
        assert svc.stats()["counts"] == {
            "submitted": 6, "ok": 6, "shed": 0, "degraded": 0, "failed": 0,
            "coalesced": 0,
        }

    def test_unknown_kind_rejected_at_spec(self):
        with pytest.raises(ValueError):
            JobSpec("banana", point())


class TestAdmission:
    def test_submit_before_start_sheds_shutdown(self):
        svc = JobService(workers=1)
        with quiet():
            out = svc.submit(JobSpec("estimate", point())).result(timeout=1.0)
        assert out.status == "shed"
        assert isinstance(out.value, Rejected)
        assert out.value.reason == "shutdown"

    def test_submit_after_stop_sheds_shutdown(self):
        with quiet():
            svc = JobService(workers=1)
            svc.start()
            svc.stop()
            out = svc.submit(JobSpec("estimate", point())).result(timeout=1.0)
        assert out.reason == "shutdown"

    def test_queue_full_sheds_deterministically(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="stall", label="blocker", stall_s=0.5,
        )])
        with inject_faults(plan), JobService(workers=1, queue_limit=1) as svc:
            blocker = svc.submit(JobSpec("estimate", point(), label="blocker"))
            assert wait_until(lambda: len(svc._queue) == 0)  # taken
            queued = svc.submit(JobSpec("estimate", point(box=32)))
            overflow = svc.submit(JobSpec("estimate", point(box=64)))
            assert overflow.done()  # refused synchronously, at the door
            out = overflow.result(timeout=0)
            assert out.status == "shed"
            assert out.value.reason == "queue_full"
            assert blocker.result(timeout=30.0).status == "ok"
            assert queued.result(timeout=30.0).status == "ok"
        assert svc.stats()["shed_reasons"] == {"queue_full": 1}
        assert svc.accounted()

    def test_byte_budget_sheds_and_recovers(self):
        pressure = {"bytes": 0}
        budget = ByteBudget(100, probe=lambda: pressure["bytes"])
        with quiet(), JobService(workers=1, byte_budget=budget) as svc:
            pressure["bytes"] = 1000
            out = settle(svc, JobSpec("estimate", point()))
            assert out.status == "shed"
            assert out.value.reason == "byte_budget"
            assert "1000" in out.value.detail
            pressure["bytes"] = 0
            assert settle(svc, JobSpec("estimate", point())).status == "ok"
        b = svc.stats()["budget"]
        assert b["rejections"] == 1 and b["high_water"] == 1000

    def test_deadline_expired_before_execution_sheds(self):
        with quiet(), JobService(workers=1) as svc:
            out = settle(svc, JobSpec("estimate", point(), deadline_s=0.0))
        assert out.status == "shed"
        assert out.value.reason == "deadline"
        assert svc.stats()["shed_reasons"] == {"deadline": 1}

    def test_default_deadline_applies(self):
        with quiet(), JobService(workers=1, default_deadline_s=0.0) as svc:
            out = settle(svc, JobSpec("estimate", point()))
        assert out.reason == "deadline"


class TestBreakerLadder:
    def breaker_service(self, journal=None):
        return JobService(
            workers=1, retry_policy=NO_RETRY, journal=journal,
            breaker_threshold=2, breaker_recovery_after=2,
            breaker_probe_jitter=0,
        )

    def test_failure_streak_trips_then_probe_recloses(self):
        # Two injected simulate failures trip the breaker; while it is
        # open jobs degrade straight to estimate; once the fault budget
        # is spent the half-open probe re-closes it.
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="|simulate", count=2,
        )])
        p = point(engine="simulate", machine=MAGNY_COURS)
        with inject_faults(plan), self.breaker_service() as svc:
            br = svc.breaker(MAGNY_COURS.name, "simulate")

            out = settle(svc, JobSpec("simulate", p))
            assert out.status == "degraded" and out.degraded_to == "estimate"
            assert br.state == CLOSED

            out = settle(svc, JobSpec("simulate", p))
            assert out.status == "degraded"
            assert br.state == OPEN  # threshold=2 consecutive failures

            out = settle(svc, JobSpec("simulate", p))  # denial 1
            assert out.status == "degraded" and br.state == OPEN

            out = settle(svc, JobSpec("simulate", p))  # denial 2 -> half-open
            assert out.status == "degraded" and br.state == HALF_OPEN

            out = settle(svc, JobSpec("simulate", p))  # the probe, clean now
            assert out.status == "ok"
            assert br.state == CLOSED
        assert svc.stats()["degraded_to"] == {"estimate": 4}
        assert svc.accounted()

    def test_failed_probe_reopens(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="|simulate", count=10,
        )])
        p = point(engine="simulate", machine=MAGNY_COURS)
        with inject_faults(plan), self.breaker_service() as svc:
            br = svc.breaker(MAGNY_COURS.name, "simulate")
            for _ in range(4):
                settle(svc, JobSpec("simulate", p))
            assert br.state == HALF_OPEN
            gen = br.generation
            settle(svc, JobSpec("simulate", p))  # probe fails
            assert br.state == OPEN and br.generation == gen + 1

    def test_ladder_falls_back_to_journal(self, tmp_path):
        p = point(engine="simulate")
        with quiet():
            cached = p.evaluate(engine="simulate")
        journal = GridJournal(str(tmp_path / "serve.jsonl"))
        journal.record(grid_hash([p]), 0, point_key(p), cached)
        # Every rung of the ladder fails: the job's own label matches
        # both |simulate and |estimate sites.
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="lastresort", count=10,
        )])
        svc = JobService(
            workers=1, retry_policy=NO_RETRY, journal=journal,
            breaker_threshold=10,
        )
        with inject_faults(plan), svc:
            out = settle(svc, JobSpec("simulate", p, label="lastresort"))
        assert out.status == "degraded" and out.degraded_to == "journal"
        assert sim_result_to_dict(out.value) == sim_result_to_dict(cached)
        assert all(f.recovered for f in out.failures)

    def test_ladder_exhausted_without_journal_fails(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="doomed", count=10,
        )])
        with inject_faults(plan), self.breaker_service() as svc:
            out = settle(svc, JobSpec(
                "simulate", point(engine="simulate"), label="doomed",
            ))
        assert out.status == "failed"
        assert out.reason == "injected"
        assert out.failures and not any(f.recovered for f in out.failures)

    def test_corrupt_result_classified_as_corruption(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="corrupt", label="poisoned", count=1,
        )])
        with inject_faults(plan), self.breaker_service() as svc:
            out = settle(svc, JobSpec("estimate", point(), label="poisoned"))
            br = svc.breaker(IVY_DESKTOP.name, "estimate")
            assert br.last_failure_kind == "corruption"
        assert out.status == "failed" and out.reason == "corruption"

    def test_success_is_journaled_for_future_fallback(self, tmp_path):
        p = point()
        journal = GridJournal(str(tmp_path / "serve.jsonl"))
        with quiet(), JobService(workers=1, journal=journal) as svc:
            out = settle(svc, JobSpec("estimate", p))
        assert out.status == "ok"
        replay = journal.lookup(grid_hash([p]), 0, point_key(p))
        assert replay is not None
        assert sim_result_to_dict(replay) == sim_result_to_dict(out.value)


class TestSupervision:
    def test_hung_worker_is_replaced(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="stall", label="wedge", stall_s=0.4,
        )])
        svc = JobService(
            workers=1, hang_timeout_s=0.05, supervise_interval_s=0.01,
        )
        with inject_faults(plan), svc:
            out = settle(svc, JobSpec("estimate", point(), label="wedge"))
            assert out.status == "failed" and out.reason == "hung"
            assert out.failures[0].kind == "timeout"
            # The replacement worker keeps serving.
            after = settle(svc, JobSpec("estimate", point()))
            assert after.status == "ok"
        assert svc.stats()["workers"]["replaced"] == 1
        assert svc.accounted()
        # The abandoned worker woke from its stall and exited cleanly.
        assert svc.census() == []

    def test_stop_drains_queued_work(self):
        with quiet():
            svc = JobService(workers=1)
            svc.start()
            tickets = [
                svc.submit(JobSpec("estimate", point(box=b)))
                for b in (16, 32, 16, 32)
            ]
            svc._registry.reset("cache.")
            svc.stop(drain=True)
        assert all(t.result(timeout=0).status == "ok" for t in tickets)
        assert svc.census() == []
        # stop() publishes the substrate cache gauges beside the serve ones.
        assert "cache.workload_cache.hit_rate" in svc._registry.snapshot()["gauges"]

    def test_stop_without_drain_sheds_queued_work(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="stall", label="blocker", stall_s=0.3,
        )])
        with inject_faults(plan):
            svc = JobService(workers=1, queue_limit=8)
            svc.start()
            blocker = svc.submit(JobSpec("estimate", point(), label="blocker"))
            assert wait_until(lambda: len(svc._queue) == 0)
            queued = [
                svc.submit(JobSpec("estimate", point(box=32)))
                for _ in range(3)
            ]
            svc.stop(drain=False)
        statuses = {t.result(timeout=0).status for t in queued}
        assert statuses == {"shed"}
        assert blocker.result(timeout=0).status == "ok"
        assert svc.accounted()


class TestVerifyJobs:
    def test_verify_case_served(self):
        from repro.verify import random_config

        config = random_config(random.Random(0))
        with quiet(), JobService(workers=1) as svc:
            out = settle(svc, JobSpec("verify", config), timeout=120.0)
        assert out.status == "ok"
        assert out.value == []
