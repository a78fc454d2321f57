"""Resilience layer: fault injection, retry, journal resume, watchdog.

The fault-injection matrix (raise/stall/corrupt x pool task/grid
point), journal resume equivalence, and watchdog quarantine demanded
by the robustness contract: every recovery path is exercised through a
deterministic seeded fault plan.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.runner import GridPoint, GridResult, run_grid
from repro.machine.spec import IVY_DESKTOP
from repro.resilience import faults
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RandomFaultPlan,
    inject_faults,
)
from repro.resilience.journal import (
    GridJournal,
    grid_hash,
    point_key,
    sim_result_from_dict,
    sim_result_to_dict,
)
from repro.resilience.retry import (
    RetryExhausted,
    RetryPolicy,
    TaskFailure,
    call_with_retry,
)
from repro.resilience.watchdog import is_finite_result, verify_variants_bitwise
from repro.schedules import Variant

DOMAIN = (32, 32, 32)


def small_grid(n_threads=(1, 2, 4), boxes=(16, 32)) -> list[GridPoint]:
    return [
        GridPoint(Variant("series"), IVY_DESKTOP, t, b, DOMAIN)
        for t in n_threads
        for b in boxes
    ]


def results_equal(a, b) -> bool:
    """Bitwise equality of two SimResult lists (exact float compare)."""
    if len(a) != len(b):
        return False
    return all(
        ra is not None
        and rb is not None
        and sim_result_to_dict(ra) == sim_result_to_dict(rb)
        for ra, rb in zip(a, b)
    )


# ------------------------------------------------------------------ faults
class TestFaultPlan:
    def test_spec_budget_is_consumed(self):
        plan = FaultPlan([FaultSpec("grid", "raise", index=3, count=2)])
        assert plan.take("grid", 3).mode == "raise"
        assert plan.take("grid", 3).mode == "raise"
        assert plan.take("grid", 3) is None

    def test_addressing_by_index_and_label(self):
        plan = FaultPlan([FaultSpec("pool", "stall", index=1, label="box0")])
        assert plan.take("pool", 1, "other-group") is None
        assert plan.take("grid", 1, "box0-tiles") is None
        assert plan.take("pool", 2, "box0-tiles") is None
        assert plan.take("pool", 1, "box0-tiles").mode == "stall"

    def test_mode_filter(self):
        plan = FaultPlan([FaultSpec("grid", "corrupt", index=0)])
        assert plan.take("grid", 0, modes=("raise", "stall")) is None
        assert plan.take("grid", 0, modes=("corrupt",)).mode == "corrupt"

    def test_random_plan_is_deterministic(self):
        a = RandomFaultPlan(seed=7, rate=0.5)
        b = RandomFaultPlan(seed=7, rate=0.5)
        decisions_a = [a.take("grid", i) is not None for i in range(50)]
        decisions_b = [b.take("grid", i) is not None for i in range(50)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_random_plan_fires_once_per_site(self):
        plan = RandomFaultPlan(seed=1, rate=1.0)
        assert plan.take("pool", 5, "g") is not None
        assert plan.take("pool", 5, "g") is None

    def test_inject_faults_restores_previous(self):
        # Neutralize any ambient plan (e.g. REPRO_FAULT_SEED bootstrap)
        # so we observe the context manager's own save/restore.
        prior = faults.active_plan()
        faults.set_fault_plan(None)
        try:
            assert not faults.plan_active()
            with inject_faults(FaultPlan()):
                assert faults.plan_active()
                with inject_faults(
                    FaultPlan([FaultSpec("grid", "raise")])
                ) as inner:
                    assert faults.active_plan() is inner
                assert faults.plan_active()
            assert not faults.plan_active()
        finally:
            faults.set_fault_plan(prior)

    def test_perturb_raises_before_any_work(self):
        with inject_faults(FaultPlan([FaultSpec("grid", "raise", index=0)])):
            with pytest.raises(FaultInjected):
                faults.perturb("grid", 0)
            faults.perturb("grid", 0)  # budget spent: clean now

    def test_env_bootstrap(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.resilience import faults; print(faults.plan_active())"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src", "REPRO_FAULT_SEED": "42"},
        )
        assert out.stdout.strip() == "True"


# ------------------------------------------------------------------- retry
class TestRetry:
    def test_backoff_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay_s=0.01, max_delay_s=0.1, jitter=0.5)
        delays = [p.delay_s(a, salt=9) for a in range(8)]
        assert delays == [p.delay_s(a, salt=9) for a in range(8)]
        assert all(0 < d <= 0.1 * 1.25 for d in delays)
        assert delays[1] > delays[0] * 1.2  # roughly exponential

    def test_call_with_retry_recovers(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return "ok"

        result, failures = call_with_retry(
            flaky, RetryPolicy(max_attempts=3), sleep=lambda d: None
        )
        assert result == "ok"
        assert len(failures) == 2 and all(f.recovered for f in failures)

    def test_retry_exhausted(self):
        def broken():
            raise ValueError("permanent")

        with pytest.raises(RetryExhausted) as e:
            call_with_retry(
                broken, RetryPolicy(max_attempts=2), sleep=lambda d: None
            )
        assert len(e.value.failures) == 2
        assert not e.value.failures[-1].recovered

    def test_backoff_never_sleeps_past_the_deadline(self):
        """Regression: a backoff the deadline cannot cover fails fast.

        Before the fix, a 10s backoff was slept in full even with 1s of
        deadline budget left — the retry then died to the deadline
        *after* burning the wall time.  Now the call fails immediately
        with a final ``"deadline"`` failure and never sleeps.
        """
        slept = []
        now = [100.0]

        def broken():
            raise ValueError("permanent")

        policy = RetryPolicy(
            max_attempts=4, base_delay_s=10.0, max_delay_s=10.0, jitter=0.0
        )
        with pytest.raises(RetryExhausted) as e:
            call_with_retry(
                broken, policy, sleep=slept.append,
                deadline_at=now[0] + 1.0, clock=lambda: now[0],
            )
        assert slept == []  # the losing backoff was never slept
        trail = e.value.failures
        assert trail[-1].kind == "deadline"
        assert "cannot fit" in trail[-1].error
        assert trail[-2].kind == "exception"  # the real attempt is kept

    def test_backoff_that_fits_the_deadline_still_sleeps(self):
        slept = []
        now = [0.0]
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValueError("transient")
            return "ok"

        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.01, jitter=0.0
        )
        result, failures = call_with_retry(
            flaky, policy, sleep=slept.append,
            deadline_at=now[0] + 60.0, clock=lambda: now[0],
        )
        assert result == "ok"
        assert slept == [0.01]

    def test_retry_budget_denial_has_distinct_kind(self):
        from repro.resilience.retry import RETRY_BUDGET_KIND
        from repro.serve import RetryBudget

        budget = RetryBudget(ratio=0.0)

        def broken():
            raise ValueError("permanent")

        with pytest.raises(RetryExhausted) as e:
            call_with_retry(
                broken, RetryPolicy(max_attempts=3), sleep=lambda d: None,
                budget=budget,
            )
        trail = e.value.failures
        assert trail[-1].kind == RETRY_BUDGET_KIND
        assert budget.units == 1 and budget.denied == 1 and budget.spent == 0

    def test_retry_budget_funds_retries_when_banked(self):
        from repro.serve import RetryBudget

        budget = RetryBudget(ratio=1.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValueError("transient")
            return "ok"

        result, failures = call_with_retry(
            flaky, RetryPolicy(max_attempts=3), sleep=lambda d: None,
            budget=budget,
        )
        assert result == "ok"
        assert budget.spent == 1
        assert budget.amplification_bound_ok()


# ---------------------------------------------------- grid fault matrix
class TestGridFaults:
    def test_transient_raise_recovers_bitwise(self):
        points = small_grid()
        clean = run_grid(points)
        plan = FaultPlan([FaultSpec("grid", "raise", index=2, count=1)])
        with inject_faults(plan):
            r = run_grid(points)
        assert results_equal(r, clean)
        assert any(f.kind == "injected" and f.recovered for f in r.failures)

    def test_permanent_raise_yields_partial_with_manifest(self):
        points = small_grid()
        plan = FaultPlan([FaultSpec("grid", "raise", index=1, count=10**6)])
        with inject_faults(plan):
            r = run_grid(points)
        assert r[1] is None
        assert all(r[i] is not None for i in range(len(points)) if i != 1)
        m = r.manifest()
        assert m["completed"] == len(points) - 1
        perm = [f for f in r.failures if not f.recovered]
        assert perm and perm[-1].index == 1 and perm[-1].kind == "injected"

    def test_stall_with_deadline_times_out_then_recovers(self):
        points = small_grid(n_threads=(1, 2), boxes=(16,))
        clean = run_grid(points)
        plan = FaultPlan(
            [FaultSpec("grid", "stall", index=0, count=1, stall_s=0.5)]
        )
        policy = RetryPolicy(max_attempts=2, deadline_s=0.08, base_delay_s=0.001)
        with inject_faults(plan):
            # Deadlines need the pooled path; force fan-out (the
            # container may have a single CPU).
            r = run_grid(points, max_workers=2, policy=policy)
        assert results_equal(r, clean)
        assert any(f.kind == "timeout" and f.recovered for f in r.failures)

    def test_corrupt_quarantined_by_watchdog(self):
        points = small_grid()
        clean = run_grid(points)
        plan = FaultPlan([FaultSpec("grid", "corrupt", index=3, count=1)])
        with inject_faults(plan):
            r = run_grid(points)
        assert results_equal(r, clean)
        recovered = [f for f in r.failures if f.kind == "nonfinite"]
        assert recovered and recovered[0].recovered
        assert recovered[0].degraded_to == "serial"

    def test_simulate_engine_degrades_to_estimator(self):
        points = [
            GridPoint(Variant("series"), IVY_DESKTOP, 2, 16, DOMAIN,
                      engine="simulate")
        ]
        plan = FaultPlan(
            [FaultSpec("simulate", "raise", count=10**6)]
        )
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.001)
        with inject_faults(plan):
            r = run_grid(points, policy=policy)
        assert r[0] is not None and is_finite_result(r[0])
        assert any(f.degraded_to == "estimate" for f in r.failures)
        # The degraded result is the estimator's answer.
        estimate = points[0].evaluate(engine="estimate")
        assert sim_result_to_dict(r[0]) == sim_result_to_dict(estimate)

    def test_happy_path_returns_plain_gridresult(self):
        r = run_grid(small_grid(n_threads=(1,), boxes=(16,)))
        assert isinstance(r, GridResult)
        assert r.ok and not r.failures and r.journal_hits == 0


# ----------------------------------------------------------------- journal
class TestJournal:
    def test_sim_result_roundtrip_bitwise(self):
        r = small_grid(n_threads=(2,), boxes=(16,))[0].evaluate()
        d = json.loads(json.dumps(sim_result_to_dict(r)))
        rt = sim_result_from_dict(d)
        assert sim_result_to_dict(rt) == sim_result_to_dict(r)
        assert rt.time_s == r.time_s  # exact, not approx

    def test_point_key_and_grid_hash_are_content_keys(self):
        a = small_grid()
        b = small_grid()
        assert [point_key(p) for p in a] == [point_key(p) for p in b]
        assert grid_hash(a) == grid_hash(b)
        assert grid_hash(a) != grid_hash(list(reversed(a)))

    def test_journal_replays_only_exact_slots(self, tmp_path):
        points = small_grid()
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            first = run_grid(points, journal=j)
            assert j.written == len(points) and j.hits == 0
        with GridJournal(path, resume=True) as j2:
            second = run_grid(points, journal=j2)
            assert j2.hits == len(points) and j2.written == 0
        assert results_equal(first, second)
        assert second.journal_hits == len(points)

    def test_journal_ignores_truncated_tail(self, tmp_path):
        points = small_grid()
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            run_grid(points, journal=j)
        with open(path, "a") as fh:
            fh.write('{"grid": "partial-wri')  # the crash mid-append
        with GridJournal(path, resume=True) as j2:
            r = run_grid(points, journal=j2)
        assert all(x is not None for x in r)

    def test_interrupted_then_resumed_equals_uninjected(self, tmp_path):
        """The acceptance scenario: a fault plan kills 10% of grid
        points; run_grid completes with a manifest; a --resume re-run
        without faults converges to the bitwise-identical full result."""
        points = small_grid(n_threads=(1, 2, 4), boxes=(8, 16, 32))  # 9 pts
        clean = run_grid(points)
        path = str(tmp_path / "sweep.jsonl")
        kill = FaultPlan(
            [FaultSpec("grid", "raise", index=4, count=10**6)]
        )
        with GridJournal(path) as j:
            with inject_faults(kill):
                partial = run_grid(points, journal=j)
        assert partial[4] is None
        assert sum(1 for r in partial if r is not None) == len(points) - 1
        assert any(not f.recovered for f in partial.failures)
        # Resume: journaled points replay, only the remainder computes.
        with GridJournal(path, resume=True) as j2:
            resumed = run_grid(points, journal=j2)
            assert j2.hits == len(points) - 1
            assert j2.written == 1
        assert results_equal(resumed, clean)


# ---------------------------------------------------------------- watchdog
class TestWatchdog:
    def test_is_finite_result(self):
        r = small_grid(n_threads=(1,), boxes=(16,))[0].evaluate()
        assert is_finite_result(r)
        r.time_s = float("nan")
        assert not is_finite_result(r)
        r.time_s = 1.0
        r.phase_times[0] = float("inf")
        assert not is_finite_result(r)
        bad_values = (float("nan"), float("inf"), float("-inf"))
        r.phase_times = [1e-3] * 10 ** 5
        assert is_finite_result(r)
        for slot in (0, 50_000, 10 ** 5 - 1):
            for bad in bad_values:
                r.phase_times[slot] = bad
                assert not is_finite_result(r), (slot, bad)
            r.phase_times[slot] = 1e-3
        for name in ("time_s", "flops", "dram_bytes"):
            for bad in bad_values:
                setattr(r, name, bad)
                assert not is_finite_result(r), (name, bad)
            setattr(r, name, 1.0)
        assert is_finite_result(r)

    def test_cross_variant_bitwise_clean(self):
        from repro.exemplar import ExemplarProblem

        phi0 = ExemplarProblem(domain_cells=(16, 16, 16), box_size=8).make_phi0()
        report = verify_variants_bitwise(
            [
                Variant("series", "P>=Box", "CLO"),
                Variant("shift_fuse", "P<Box", "CLO"),
            ],
            phi0,
            threads=2,
        )
        assert report.clean
        assert not report.divergent
        assert len(report.checked) == 2

    def test_divergent_variant_quarantined_and_recovered(self):
        from repro.exemplar import ExemplarProblem

        phi0 = ExemplarProblem(domain_cells=(16, 16, 16), box_size=8).make_phi0()
        v = Variant("series", "P>=Box", "CLO")
        # Corrupt the threaded run's output; the serial quarantine
        # re-run is clean (budget of 1), so the watchdog must recover.
        plan = FaultPlan([FaultSpec("pool", "corrupt", count=1)])
        with inject_faults(plan):
            report = verify_variants_bitwise([v], phi0, threads=2)
        assert report.divergent == [v.short_name]
        assert report.recovered == [v.short_name]
        assert report.clean  # recovered => clean

    def test_taskfailure_to_dict(self):
        f = TaskFailure("grid", 3, "k", "timeout", error="x", recovered=True)
        d = f.to_dict()
        assert d["scope"] == "grid" and d["kind"] == "timeout" and d["recovered"]


class TestJournalCorruptRecords:
    """Regression: corrupt journal records must be skipped, never fatal.

    A crash mid-append (or a hand-edited file) can leave records that
    parse as JSON but are structurally broken; resume used to raise
    KeyError on a record carrying "grid" and "r" but no "i"."""

    def _write_journal(self, path, lines):
        with open(path, "w") as fh:
            fh.write('{"kind": "header", "version": 1}\n')
            for line in lines:
                fh.write(line + "\n")

    def test_record_missing_index_is_skipped(self, tmp_path):
        points = small_grid()
        r = points[0].evaluate()
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [json.dumps({"grid": grid_hash(points), "key": point_key(points[0]), "r": sim_result_to_dict(r)})],
        )
        with GridJournal(path, resume=True) as j:  # KeyError pre-fix
            assert len(j) == 0
            out = run_grid(points, journal=j)
        assert all(x is not None for x in out)

    def test_record_with_bad_index_is_skipped(self, tmp_path):
        points = small_grid()
        r = sim_result_to_dict(points[0].evaluate())
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [json.dumps({"grid": grid_hash(points), "i": "zero-ish", "key": point_key(points[0]), "r": r})],
        )
        with GridJournal(path, resume=True) as j:
            assert len(j) == 0

    def test_payload_missing_simresult_fields_is_skipped(self, tmp_path):
        points = small_grid()
        good = sim_result_to_dict(points[0].evaluate())
        ghash = grid_hash(points)
        key = point_key(points[0])
        bad_payloads = [
            {k: v for k, v in good.items() if k != "time_s"},  # missing field
            {**good, "time_s": "fast"},  # non-numeric
            {**good, "phase_times": "not-a-list"},
            {**good, "phase_times": [1.0, "x"]},
            "not-a-dict",
        ]
        path = str(tmp_path / "j.jsonl")
        self._write_journal(
            path,
            [
                json.dumps({"grid": ghash, "i": i, "key": key, "r": p})
                for i, p in enumerate(bad_payloads)
            ],
        )
        with GridJournal(path, resume=True) as j:
            assert len(j) == 0
            assert j.lookup(ghash, 0, key) is None

    def test_valid_records_survive_surrounding_corruption(self, tmp_path):
        points = small_grid()
        clean = run_grid(points)
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            run_grid(points, journal=j)
        # Splice corrupt records *between* the valid ones.
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        lines.insert(1, json.dumps({"grid": "g", "r": {}}))
        lines.insert(3, '{"grid": "trunc')
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with GridJournal(path, resume=True) as j2:
            resumed = run_grid(points, journal=j2)
            assert j2.hits == len(points) and j2.written == 0
        assert results_equal(resumed, clean)


class TestClassifyFailure:
    def test_kind_map(self):
        import concurrent.futures

        from repro.resilience.retry import (
            CorruptionError,
            DeadlineExceeded,
            classify_failure,
        )

        assert classify_failure(FaultInjected("grid", 0)) == "injected"
        assert classify_failure(DeadlineExceeded("over budget", 0.5)) == "deadline"
        assert classify_failure(TimeoutError("slow")) == "timeout"
        assert classify_failure(
            concurrent.futures.CancelledError()
        ) == "cancelled"
        assert classify_failure(CorruptionError("nan")) == "corruption"
        assert classify_failure(ValueError("boom")) == "exception"
        assert classify_failure(RuntimeError("boom")) == "exception"

    def test_deadline_still_caught_as_timeout(self):
        # DeadlineExceeded subclasses TimeoutError so pre-existing
        # handlers keep working; only the classification is finer.
        from repro.resilience.retry import DeadlineExceeded

        with pytest.raises(TimeoutError):
            raise DeadlineExceeded("x")

    def test_private_alias_stable(self):
        from repro.resilience.retry import _classify, classify_failure

        assert _classify is classify_failure

    def test_retry_records_carry_new_kinds(self):
        from repro.resilience.retry import CorruptionError

        def poisoned():
            raise CorruptionError("nan payload")

        with pytest.raises(RetryExhausted) as ei:
            call_with_retry(
                poisoned,
                RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
                sleep=lambda _s: None,
            )
        assert [f.kind for f in ei.value.failures] == [
            "corruption", "corruption",
        ]


class TestHeartbeat:
    def test_busy_tracking_with_injected_clock(self):
        from repro.resilience.watchdog import Heartbeat

        now = [100.0]
        hb = Heartbeat("w0", clock=lambda: now[0])
        assert hb.busy_for() is None
        hb.start("job-a")
        now[0] = 100.25
        assert hb.busy_for() == pytest.approx(0.25)
        assert hb.task_label == "job-a"
        hb.beat()
        hb.clear()
        assert hb.busy_for() is None
        assert hb.tasks_started == 1

    def test_monitor_finds_hung_tasks(self):
        from repro.resilience.watchdog import HeartbeatMonitor

        now = [0.0]
        mon = HeartbeatMonitor(clock=lambda: now[0])
        fast = mon.register("fast")
        slow = mon.register("slow")
        fast.start("quick")
        slow.start("wedged")
        now[0] = 0.05
        fast.clear()
        now[0] = 1.0
        hung = mon.hung(timeout_s=0.5)
        assert [hb.name for hb, _busy in hung] == ["slow"]
        assert hung[0][1] == pytest.approx(1.0)

    def test_monitor_register_rejects_duplicates(self):
        from repro.resilience.watchdog import HeartbeatMonitor

        mon = HeartbeatMonitor()
        mon.register("w")
        with pytest.raises(ValueError):
            mon.register("w")
        mon.unregister("w")
        mon.register("w")
        assert len(mon) == 1


class TestConcurrentJournalWriters:
    def test_two_instances_interleave_whole_lines(self, tmp_path):
        import threading

        from repro.machine.simulator import SimResult

        path = str(tmp_path / "shared.jsonl")
        j1 = GridJournal(path)
        j2 = GridJournal(path, resume=True)

        def result(i):
            return SimResult(
                machine="m", variant="v", threads=1, time_s=float(i),
                flops=1.0, dram_bytes=1.0, phase_times=[float(i)],
            )

        def writer(j, ghash, count):
            for i in range(count):
                j.record(ghash, i, f"k{i}", result(i))

        threads = [
            threading.Thread(target=writer, args=(j1, "gridA", 50)),
            threading.Thread(target=writer, args=(j2, "gridB", 50)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j1.close()
        j2.close()
        # Every line is whole, valid JSON — no interleaved fragments.
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        records = [json.loads(ln) for ln in lines]
        data = [r for r in records if "grid" in r]
        assert len(data) == 100
        # And a resumed reader sees every record from both writers.
        with GridJournal(path, resume=True) as j3:
            assert len(j3) == 100
            assert j3.lookup("gridA", 7, "k7").time_s == 7.0
            assert j3.lookup("gridB", 3, "k3").time_s == 3.0

    def test_same_path_instances_share_one_lock(self, tmp_path):
        from repro.resilience.journal import _path_lock

        path = tmp_path / "same.jsonl"
        assert _path_lock(str(path)) is _path_lock(str(path))

# ------------------------------------------------------------- WAL journal
class TestWALJournal:
    def test_commit_replay_resume_roundtrip(self, tmp_path):
        from repro.resilience.journal import WALJournal

        path = str(tmp_path / "w.wal")
        records = [
            {"op": "lease", "lid": "l0", "seq": 0},
            {"op": "release", "lid": "l0"},
            {"op": "settle", "seq": 0, "status": "ok"},
        ]
        with WALJournal(path) as w:
            for rec in records:
                w.commit(rec)
            assert w.replay() == records
            assert w.committed == len(records) + 1  # + header
        with WALJournal(path, resume=True) as w2:
            assert w2.replay() == records
            assert w2.recovered_bytes == 0
            assert w2.skipped_records == 0

    def test_commits_are_byte_stable(self, tmp_path):
        # Same logical records, different dict insertion order: the
        # sorted-keys discipline makes the logs byte-for-byte identical,
        # which is what lets replay comparisons be exact.
        from repro.resilience.journal import WALJournal

        a, b = str(tmp_path / "a.wal"), str(tmp_path / "b.wal")
        with WALJournal(a) as w:
            w.commit({"op": "lease", "lid": "l0", "seq": 4})
        with WALJournal(b) as w:
            w.commit({"seq": 4, "lid": "l0", "op": "lease"})
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_open_without_resume_truncates(self, tmp_path):
        from repro.resilience.journal import WALJournal

        path = str(tmp_path / "w.wal")
        with WALJournal(path) as w:
            w.commit({"op": "lease", "lid": "l0"})
        with WALJournal(path) as w2:  # resume=False: fresh log
            assert w2.replay() == []
        with WALJournal(path, resume=True) as w3:
            assert w3.replay() == []

    def test_rotate_compacts_to_survivor_set(self, tmp_path):
        from repro.resilience.journal import WALJournal

        path = str(tmp_path / "w.wal")
        with WALJournal(path) as w:
            w.commit({"op": "lease", "lid": "l0"})
            w.commit({"op": "release", "lid": "l0"})
            w.commit({"op": "lease", "lid": "l1"})
            w.rotate(records=[{"op": "lease", "lid": "l1"}])
            assert w.replay() == [{"op": "lease", "lid": "l1"}]
            # Appends after rotation land in the new file.
            w.commit({"op": "release", "lid": "l1"})
        assert not os.path.exists(path + ".rotate")
        with WALJournal(path, resume=True) as w2:
            assert w2.replay() == [
                {"op": "lease", "lid": "l1"},
                {"op": "release", "lid": "l1"},
            ]

    def test_interior_corruption_skipped_and_counted(self, tmp_path):
        from repro.resilience.journal import WALJournal

        path = str(tmp_path / "w.wal")
        with WALJournal(path) as w:
            w.commit({"op": "lease", "lid": "l0"})
            w.commit({"op": "release", "lid": "l0"})
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines.insert(2, "{torn-interior-garbage")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with WALJournal(path, resume=True) as w2:
            assert w2.replay() == [
                {"op": "lease", "lid": "l0"},
                {"op": "release", "lid": "l0"},
            ]
            assert w2.skipped_records == 1


class TestTailCorruptionByteByByte:
    """Satellite: crash-consistency sweep over every tail byte.

    A crash mid-append can stop the write after *any* byte of the final
    record; whatever the cut or corruption point, resume must (a) never
    raise, (b) keep every fully committed prefix record, and (c) leave
    the file appendable."""

    def test_wal_truncated_at_every_byte(self, tmp_path):
        from repro.resilience.journal import WALJournal

        base = str(tmp_path / "base.wal")
        with WALJournal(base) as w:
            w.commit({"op": "lease", "lid": "l0", "seq": 0})
            w.commit({"op": "lease", "lid": "l1", "seq": 1})
        with open(base, "rb") as fh:
            pristine = fh.read()
        lines = pristine.splitlines(keepends=True)
        prefix, final = b"".join(lines[:-1]), lines[-1]
        path = str(tmp_path / "cut.wal")
        for cut in range(len(final)):
            with open(path, "wb") as fh:
                fh.write(prefix + final[:cut])
            with WALJournal(path, resume=True) as w:
                assert w.replay() == [{"op": "lease", "lid": "l0", "seq": 0}]
                if cut:
                    assert w.recovered_bytes == cut
                w.commit({"op": "release", "lid": "l0"})
            with WALJournal(path, resume=True) as w2:
                assert w2.replay() == [
                    {"op": "lease", "lid": "l0", "seq": 0},
                    {"op": "release", "lid": "l0"},
                ]

    def test_wal_corrupted_at_every_byte(self, tmp_path):
        from repro.resilience.journal import WALJournal

        base = str(tmp_path / "base.wal")
        with WALJournal(base) as w:
            w.commit({"op": "lease", "lid": "l0", "seq": 0})
            w.commit({"op": "lease", "lid": "l1", "seq": 1})
        with open(base, "rb") as fh:
            pristine = fh.read()
        lines = pristine.splitlines(keepends=True)
        prefix, final = b"".join(lines[:-1]), lines[-1]
        path = str(tmp_path / "corrupt.wal")
        for i in range(len(final)):
            stomped = final[:i] + b"\x00" + final[i + 1:]
            with open(path, "wb") as fh:
                fh.write(prefix + stomped)
            with WALJournal(path, resume=True) as w:
                # The corrupt final record is dropped; the prefix survives.
                assert w.replay() == [{"op": "lease", "lid": "l0", "seq": 0}]
                w.commit({"op": "release", "lid": "l0"})
            with WALJournal(path, resume=True) as w2:
                assert len(w2.replay()) == 2

    def test_grid_journal_truncated_at_every_byte(self, tmp_path):
        points = small_grid(n_threads=(1,), boxes=(16, 32))  # 2 points
        base = str(tmp_path / "base.jsonl")
        with GridJournal(base) as j:
            run_grid(points, journal=j)
        with open(base, "rb") as fh:
            pristine = fh.read()
        lines = pristine.splitlines(keepends=True)
        prefix, final = b"".join(lines[:-1]), lines[-1]
        ghash = grid_hash(points)
        path = str(tmp_path / "cut.jsonl")
        for cut in range(0, len(final), 7):  # stride keeps runtime sane
            with open(path, "wb") as fh:
                fh.write(prefix + final[:cut])
            with GridJournal(path, resume=True) as j:
                assert len(j) == 1  # first record always survives
                assert j.lookup(ghash, 0, point_key(points[0])) is not None
                assert j.recovered_bytes == cut  # the torn partial line
            with GridJournal(path, resume=True) as j2:
                out = run_grid(points, journal=j2)  # recomputes the tail
            assert all(r is not None for r in out)


class TestGridJournalRotate:
    def test_rotate_then_resume_replays_everything(self, tmp_path):
        points = small_grid()
        path = str(tmp_path / "j.jsonl")
        with GridJournal(path) as j:
            first = run_grid(points, journal=j)
            j.rotate()
            assert len(j) == len(points)
        assert not os.path.exists(path + ".rotate")
        with GridJournal(path, resume=True) as j2:
            second = run_grid(points, journal=j2)
            assert j2.hits == len(points) and j2.written == 0
        assert results_equal(first, second)

    def test_rotate_drops_superseded_lines(self, tmp_path):
        points = small_grid(n_threads=(1,), boxes=(16,))
        path = str(tmp_path / "j.jsonl")
        r = points[0].evaluate()
        with GridJournal(path) as j:
            for _ in range(5):  # re-record the same slot five times
                j.record(grid_hash(points), 0, point_key(points[0]), r)
            before = os.path.getsize(path)
            j.rotate()
            after = os.path.getsize(path)
        assert after < before
        with GridJournal(path, resume=True) as j2:
            assert len(j2) == 1


# ------------------------------------------------- process failure kinds
class TestClassifyProcessFailures:
    def test_process_kind_map(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.resilience.retry import (
            PROCESS_FAILURE_KINDS,
            RemoteTaskError,
            WorkerLost,
            classify_failure,
        )

        assert classify_failure(WorkerLost("gone", signal=9)) == "signal_exit"
        assert classify_failure(WorkerLost("gone")) == "worker_lost"
        assert classify_failure(BrokenProcessPool("broke")) == "worker_lost"
        assert set(PROCESS_FAILURE_KINDS) == {"worker_lost", "signal_exit"}

    def test_remote_error_carries_child_classification(self):
        from repro.resilience.retry import RemoteTaskError, classify_failure

        # The child classifies its own exception; the parent must not
        # re-classify the wrapper as a generic "exception".
        assert classify_failure(
            RemoteTaskError("corruption", "CorruptionError('nan')")
        ) == "corruption"
        assert classify_failure(
            RemoteTaskError("exception", "ValueError('boom')")
        ) == "exception"

    def test_lease_unavailable_is_a_process_failure(self):
        from repro.resilience.retry import (
            PROCESS_FAILURE_KINDS,
            classify_failure,
        )
        from repro.serve.shards import LeaseUnavailable

        assert classify_failure(LeaseUnavailable("none")) in (
            PROCESS_FAILURE_KINDS
        )

    def test_worker_lost_attrs(self):
        from repro.resilience.retry import WorkerLost

        exc = WorkerLost("s3 died", shard="s3", signal=9, exitcode=-9)
        assert exc.shard == "s3"
        assert exc.signal == 9 and exc.exitcode == -9

    def test_take_kill_budget_consumed(self):
        plan = FaultPlan([FaultSpec("shard", "kill", label="x", count=1)])
        with inject_faults(plan):
            assert faults.take_kill("shard", 0, "x-site")
            assert not faults.take_kill("shard", 0, "x-site")  # spent
            assert not faults.take_kill("shard", 0, "other")
