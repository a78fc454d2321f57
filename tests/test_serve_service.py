"""JobService: admission, shedding, deadlines, breakers, supervision.

Every scenario pins its fault schedule with an explicit
:class:`FaultPlan` (which also neutralizes any ambient
``REPRO_FAULT_SEED`` plan inside the ``with`` block), runs one worker
where ordering matters, and submits jobs one at a time — so each test
is a deterministic replay.
"""

import dataclasses
import importlib
import time

import pytest

from repro.bench.runner import GridPoint, run_grid
from repro.cluster import GEMINI, ClusterPoint
from repro.machine.spec import IVY_DESKTOP, MAGNY_COURS
from repro.resilience.faults import FaultPlan, FaultSpec, inject_faults
from repro.resilience.journal import sim_result_to_dict
from repro.resilience.retry import NO_RETRY
from repro.schedules import Variant
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    ByteBudget,
    JobService,
    JobSpec,
    MemoStore,
    Rejected,
    canonical_job_key,
    serve_grid,
)
from repro.serve.service import _ShedJob

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

    def test_submit_racing_stop_sheds_shutdown_not_queue_full(self):
        # The race, made deterministic: the submit has passed the
        # liveness check (the service is live) and stop() closes the
        # queue before the offer lands.
        with quiet(), JobService(workers=1) as svc:
            svc._queue.close()
            out = svc.submit(JobSpec("estimate", point())).result(timeout=1.0)
        assert out.status == "shed" and out.value.reason == "shutdown"
        assert svc.stats()["shed_reasons"] == {"shutdown": 1}

    def test_promotion_during_draining_stop_sheds_shutdown(self):
        # The leader stalls, then fails on a corrupt output; its waiter
        # is promoted while stop(drain=True) has the queue closed.
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="stall", label="drain|",
                      stall_s=0.4, count=1),
            FaultSpec(scope="serve", mode="corrupt", label="drain|", count=1),
        ])
        with inject_faults(plan):
            svc = JobService(workers=2, retry_policy=NO_RETRY).start()
            leader, waiter = (
                svc.submit(JobSpec("estimate", point(), label="drain"))
                for _ in range(2)
            )
            assert wait_until(
                lambda: svc.stats()["coalesce"]["parked"] == 1, timeout=0.3
            )
            svc.stop(drain=True)
        assert leader.result(timeout=0).status == "failed"
        out = waiter.result(timeout=0)
        assert out.status == "shed" and out.value.reason == "shutdown"
        stats = svc.stats()
        assert stats["shed_reasons"] == {"shutdown": 1}
        assert stats["coalesce"]["promotions"] == 1
        assert svc.accounted()

    def test_constructor_rejects_what_it_would_ignore(self):
        with pytest.raises(ValueError, match="shards must be >= 0"):
            JobService(shards=-1)
        for memo in (None, False, MemoStore()):
            with pytest.raises(ValueError, match="memo_limit_bytes"):
                JobService(memo=memo, memo_limit_bytes=1 << 20)
        JobService(memo=True, memo_limit_bytes=1 << 20)  # sizes its own store


CLUSTER = ClusterPoint(
    Variant("series"), MAGNY_COURS, GEMINI, nodes=2, box_size=8,
    domain_cells=(16, 16, 16), engine="simulate",
)


def ladder_job(kind, label=""):
    """A job that asks for the simulate rung, as a point or a cluster step."""
    payload = (
        CLUSTER if kind == "cluster"
        else point(engine="simulate", machine=MAGNY_COURS)
    )
    return JobSpec(kind, payload, label=label)


def same_value(spec, value, engine):
    """Whether ``value`` is what ``spec`` evaluates to directly on ``engine``."""
    if spec.kind == "cluster":
        direct = dataclasses.replace(spec.payload, engine=engine).evaluate()
        return value.step_s == direct.step_s and value.cost == direct.cost
    return sim_result_to_dict(value) == sim_result_to_dict(
        spec.payload.evaluate(engine=engine)
    )


class TestBreakerLadder:
    def breaker_service(self, **kw):
        return JobService(
            workers=1, retry_policy=NO_RETRY,
            breaker_threshold=2, breaker_recovery_after=2,
            breaker_probe_jitter=0, **kw,
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

    @pytest.mark.parametrize("kind", ["simulate", "cluster"])
    def test_breaker_open_degrades_to_estimate(self, kind):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="|simulate", count=2,
        )])
        spec = ladder_job(kind)
        with inject_faults(plan), self.breaker_service() as svc:
            br = svc.breaker(MAGNY_COURS.name, "simulate")
            for _ in range(2):  # each fails its simulate rung once
                out = settle(svc, spec)
                assert out.status == "degraded"
                assert [f.kind for f in out.failures] == ["injected"]
                assert all(
                    f.recovered and f.degraded_to == "estimate"
                    for f in out.failures
                )
            assert br.state == OPEN
            out = settle(svc, spec)  # refused at the breaker: nothing ran
        assert out.status == "degraded" and out.degraded_to == "estimate"
        assert out.failures == []
        assert same_value(spec, out.value, "estimate")
        assert svc.stats()["degraded_to"] == {"estimate": 3}

    @pytest.mark.parametrize("kind", ["simulate", "cluster"])
    def test_every_rung_fails(self, kind):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="doomed", count=10,
        )])
        with inject_faults(plan), self.breaker_service() as svc:
            out = settle(svc, ladder_job(kind, label="doomed"))
        assert out.status == "failed"
        assert out.reason == "injected"
        assert [f.kind for f in out.failures] == ["injected", "injected"]
        assert not any(f.recovered for f in out.failures)

    @pytest.mark.parametrize("kind", ["simulate", "cluster"])
    def test_deadline_spent_fails_deadline(self, kind):
        # The simulate rung stalls past the deadline and then fails on a
        # corrupt output, so the estimate rung finds the budget spent:
        # degrading cannot help, the job fails with reason deadline.
        plan = FaultPlan([
            FaultSpec(scope="serve", mode="stall", label="late|simulate",
                      stall_s=0.5, count=1),
            FaultSpec(scope="serve", mode="corrupt", label="late|simulate",
                      count=1),
        ])
        spec = dataclasses.replace(ladder_job(kind, "late"), deadline_s=0.25)
        with inject_faults(plan), self.breaker_service() as svc:
            out = settle(svc, spec)
        assert (out.status, out.reason) == ("failed", "deadline")
        assert [f.kind for f in out.failures] == ["corruption", "deadline"]
        assert svc.accounted()

    def test_corrupt_result_classified_as_corruption(self):
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="corrupt", label="poisoned", count=1,
        )])
        with inject_faults(plan), self.breaker_service() as svc:
            out = settle(svc, JobSpec("estimate", point(), label="poisoned"))
            br = svc.breaker(IVY_DESKTOP.name, "estimate")
            assert br.last_failure_kind == "corruption"
        assert out.status == "failed" and out.reason == "corruption"

    def test_shed_signal_crosses_the_retry_loop_unspent(self, monkeypatch):
        # _ShedJob is a BaseException: call_with_retry (2 attempts here)
        # must not catch it, count it as a failure, or retry it.
        def refuse(self, engine=None):
            raise _ShedJob("byte_budget", "refused below the retry loop")

        monkeypatch.setattr(GridPoint, "evaluate", refuse)
        assert not issubclass(_ShedJob, Exception)
        with quiet(), JobService(workers=1) as svc:
            out = settle(svc, JobSpec("estimate", point()))
        assert out.status == "shed" and out.value.reason == "byte_budget"
        assert out.failures == [] and svc.attempts == 1


class TestMemoServesRepeats:
    """What the deleted journal rung did, done by the one store that
    serves repeats: the memo settles a stored config before the ladder
    is reached, and persists over the same append log."""

    def test_stored_result_settles_before_a_faulted_ladder(self, tmp_path):
        p = point(engine="simulate")
        spec = JobSpec("simulate", p, label="lastresort")
        path = str(tmp_path / "memo.jsonl")
        with quiet():
            stored = p.evaluate(engine="simulate")
        store = MemoStore(path=path)
        assert store.put(canonical_job_key(spec), "simulate", stored)
        store.close()
        # Every rung of the ladder would fail: the label matches both
        # the |simulate and the |estimate site.
        plan = FaultPlan([FaultSpec(
            scope="serve", mode="raise", label="lastresort", count=10,
        )])
        svc = JobService(workers=1, retry_policy=NO_RETRY, memo=path)
        with inject_faults(plan), svc:
            out = settle(svc, spec)
        assert out.status == "ok" and out.cached and out.failures == []
        assert sim_result_to_dict(out.value) == sim_result_to_dict(stored)
        assert svc.attempts == 0

    def test_success_is_readable_from_a_second_store(self, tmp_path):
        p = point()
        path = str(tmp_path / "memo.jsonl")
        with quiet(), JobService(workers=1, memo=path) as svc:
            out = settle(svc, JobSpec("estimate", p))
        assert out.status == "ok" and not out.cached
        second = MemoStore(path=path)
        replay = second.get(canonical_job_key(JobSpec("estimate", p)))
        second.close()
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


class TestCLIValidation:
    """Numeric ranges are checked once, by the constructors; the CLIs
    report their one-line error instead of re-implementing the check."""

    @pytest.mark.parametrize("module, argv, message", [
        ("repro.serve.__main__", ["--shards", "-1"],
         "error: shards must be >= 0, got -1"),
        ("repro.serve.__main__", ["--retry-budget", "-1"],
         "error: retry_budget_ratio must be >= 0"),
        ("repro.serve.__main__", ["--queue-limit", "0"],
         "error: queue limit must be >= 1"),
        ("repro.serve.__main__", ["--byte-budget", "-5"],
         "error: limit_bytes must be >= 0, got -5"),
        ("repro.serve.__main__", ["--deadline-ms", "-1"],
         "error: default_deadline_s must be >= 0, got -0.001"),
        ("repro.serve.__main__", ["--memo", "mem", "--memo-bytes", "-1"],
         "error: limit_bytes must be >= 0, got -1"),
        ("repro.serve.__main__", ["--chaos-seed", "1", "--chaos-rate", "7"],
         "error: rate must be in [0, 1], got 7.0"),
        ("repro.serve.chaos", ["--shards", "-1"],
         "error: shards must be >= 0, got -1"),
        ("repro.serve.chaos", ["--duration-cases", "0"],
         "error: duration_cases must be >= 1, got 0"),
        ("repro.serve.chaos", ["--duration-cases", "-3"],
         "error: duration_cases must be >= 1, got -3"),
        ("repro.serve.chaos", ["--overload", "--duration-cases", "0"],
         "error: duration_cases must be >= 1, got 0"),
        ("repro.serve.chaos", ["--shards", "1", "--kill-rate", "7"],
         "error: kill_rate must be in [0, 1], got 7.0"),
    ])
    def test_out_of_range_value_is_a_one_line_error(
        self, module, argv, message, capsys
    ):
        assert importlib.import_module(module).main(argv) == 1
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("module, argv, message", [
        ("repro.serve.__main__", ["--shard-wal", "x.wal"],
         "--shard-wal requires --shards >= 1"),
        ("repro.serve.chaos", ["--kill-rate", "0.1"],
         "--kill-rate/--wal require --shards >= 1"),
    ])
    def test_flag_relationships_stay_with_the_parser(
        self, module, argv, message, capsys
    ):
        with pytest.raises(SystemExit):
            importlib.import_module(module).main(argv)
        assert message in capsys.readouterr().err
