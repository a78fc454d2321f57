"""The multi-process shard pool: leases, kill -9, WAL recovery.

Process-chaos scenarios pin their kill schedules with explicit
child-side fault specs (picklable, installed inside the shard), so
every death is deterministic; the parent-side plan is always the empty
``quiet()`` plan to shield the tests from ambient ``REPRO_FAULT_SEED``.
"""

import os
import signal
import threading
import time

import pytest

from repro.bench.runner import GridPoint
from repro.machine.spec import IVY_DESKTOP
from repro.resilience.faults import FaultPlan, inject_faults
from repro.resilience.journal import WALJournal, sim_result_to_dict
from repro.resilience.retry import (
    PROCESS_FAILURE_KINDS,
    DeadlineExceeded,
    RetryPolicy,
    WorkerLost,
)
from repro.schedules import Variant
from repro.serve import JobService, JobSpec
from repro.serve.shards import (
    LeaseUnavailable,
    ShardPool,
    replay_wal_state,
)

DOMAIN = (32, 32, 32)


def point(threads=1, box=16, engine="simulate"):
    return GridPoint(
        Variant("series"), IVY_DESKTOP, threads, box, DOMAIN, engine=engine
    )


def quiet():
    return inject_faults(FaultPlan([]))


def wait_until(cond, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.01)
    return False


class SettleProbeWAL(WALJournal):
    """A real WAL that notes, at every settle commit, whether the
    settled ticket had already woken its caller.

    Submit through :meth:`submit` so the ticket is registered before
    any worker can commit its settle.
    """

    def __init__(self, path):
        super().__init__(path, fsync=False)
        self.tickets = {}
        self.gate = threading.Lock()
        self.awake_at_commit = []
        self.settle_seqs = []

    def submit(self, service, spec):
        with self.gate:
            ticket = service.submit(spec)
            self.tickets[ticket.seq] = ticket
        return ticket

    def commit(self, record):
        if record.get("op") == "settle":
            with self.gate:
                self.settle_seqs.append(record["seq"])
                self.awake_at_commit.append(
                    self.tickets[record["seq"]].done()
                )
        super().commit(record)


def kill_spec(label, count=1):
    """A child-side plan that SIGKILLs the shard at matching sites."""
    return {"specs": [
        {"scope": "shard", "mode": "kill", "label": label, "count": count},
    ]}


# ------------------------------------------------------------------- pool
class TestShardPool:
    def test_result_bitwise_identical_to_direct(self):
        p = point()
        with quiet(), ShardPool(shards=2) as pool:
            r = pool.run(0, p, "simulate")
        direct = p.evaluate(engine="simulate")
        assert sim_result_to_dict(r) == sim_result_to_dict(direct)

    def test_idle_shard_killed_is_replaced_by_supervisor(self):
        with quiet(), ShardPool(shards=2, supervise_interval_s=0.02) as pool:
            victim = next(iter(pool._shards.values()))
            os.kill(victim.pid, signal.SIGKILL)
            assert wait_until(
                lambda: pool.alive_count() == 2
                and pool.restarts_total >= 1
            )
            # The pool still works after the replacement.
            r = pool.run(1, point(), "simulate")
            assert r is not None

    def test_kill_fault_raises_worker_lost_then_replacement_serves(
        self, tmp_path
    ):
        wal = WALJournal(str(tmp_path / "pool.wal"))
        with quiet(), ShardPool(
            shards=1, wal=wal, fault_params=kill_spec("job0"),
        ) as pool:
            with pytest.raises(WorkerLost) as ei:
                pool.run(0, point(), "simulate", site="job0")
            assert ei.value.signal == signal.SIGKILL
            assert ei.value.exitcode == -signal.SIGKILL
            # The replacement child re-arms a fresh plan, so the retry
            # site must not match the kill label.
            r = pool.run(0, point(), "simulate", site="retry")
            assert r is not None
        state = replay_wal_state(wal.replay())
        assert not state["open_leases"]
        assert state["counts"]["orphans"] == 1
        assert state["counts"]["releases"] == 1
        wal.close()

    def test_worker_lost_classifies_as_process_failure(self):
        from repro.resilience.retry import classify_failure

        with quiet(), ShardPool(
            shards=1, fault_params=kill_spec("k"),
        ) as pool:
            with pytest.raises(WorkerLost) as ei:
                pool.run(0, point(), "simulate", site="k")
        assert classify_failure(ei.value) in PROCESS_FAILURE_KINDS

    def test_deadline_mid_execution_kills_shard(self):
        # A stall fault keeps the child busy well past the deadline; the
        # parent cannot cancel the work, so it kills the process.
        stall = {"specs": [{
            "scope": "shard", "mode": "stall", "label": "slow",
            "count": 1, "stall_s": 5.0,
        }]}
        with quiet(), ShardPool(shards=1, fault_params=stall) as pool:
            with pytest.raises(DeadlineExceeded):
                pool.run(
                    0, point(), "simulate", site="slow",
                    deadline_at=time.monotonic() + 0.05,
                )
            # Killed-for-deadline shard was replaced.
            assert wait_until(lambda: pool.alive_count() == 1)

    def test_checkout_respects_expired_deadline(self):
        with quiet(), ShardPool(shards=1) as pool:
            # Hold the only shard; a checkout whose deadline already
            # expired must raise LeaseUnavailable, not hang.
            held = pool._checkout(None)
            with pytest.raises(LeaseUnavailable):
                pool._checkout(time.monotonic() - 0.001)
            pool._checkin(held)

    def test_child_byte_budget_refuses_job(self):
        from repro.serve.shards import ShardOverBudget

        with quiet(), ShardPool(shards=1, byte_budget_bytes=1) as pool:
            with pytest.raises(ShardOverBudget):
                pool.run(0, point(), "simulate")

    def test_stats_and_gauges(self):
        from repro.obs.metrics import default_registry

        with quiet(), ShardPool(shards=2) as pool:
            pool.run(0, point(), "simulate")
            s = pool.stats()
            assert s["alive"] == 2 and s["target"] == 2
            assert s["leases"]["granted"] == 1
            assert s["leases"]["released"] == 1
            pool.publish_gauges()
        snap = default_registry().snapshot()
        assert snap["gauges"]["serve.shards.alive"] == 2.0


# ---------------------------------------------------------------- WAL state
class TestWalReplay:
    def test_open_lease_visible_until_closed(self):
        records = [
            {"op": "spawn", "shard": "s0", "pid": 1},
            {"op": "lease", "lid": "l0", "seq": 5, "shard": "s0", "site": "a"},
        ]
        state = replay_wal_state(records)
        assert state["open_leases"] == {
            "l0": {"seq": 5, "shard": "s0", "site": "a"},
        }
        state = replay_wal_state(records + [{"op": "release", "lid": "l0"}])
        assert not state["open_leases"]

    def test_recovery_closes_crashed_supervisors_leases(self, tmp_path):
        path = str(tmp_path / "crash.wal")
        # A "supervisor" leases two jobs and crashes (no release): the
        # WAL simply ends.  fsync-on-commit means both leases survive.
        wal = WALJournal(path)
        wal.commit({"op": "spawn", "shard": "s0", "pid": 1})
        wal.commit(
            {"op": "lease", "lid": "l0", "seq": 0, "shard": "s0", "site": "a"}
        )
        wal.commit(
            {"op": "lease", "lid": "l1", "seq": 1, "shard": "s0", "site": "b"}
        )
        wal.close()
        # The restarted supervisor opens the pool over the same log.
        resumed = WALJournal(path, resume=True)
        with quiet(), ShardPool(shards=1, wal=resumed) as pool:
            assert {r["lid"] for r in pool.recovered_leases} == {"l0", "l1"}
            assert pool.wal_recoveries_total == 2
            state = replay_wal_state(resumed.replay())
            assert not state["open_leases"]
            assert state["counts"]["recovered"] == 2
        resumed.close()

    def test_replay_reconstructs_settle_state(self, tmp_path):
        wal_path = str(tmp_path / "svc.wal")
        p = point()
        with quiet(), JobService(workers=1, shards=1, wal=wal_path) as svc:
            out = svc.submit(JobSpec("simulate", p, label="j0")).result(
                timeout=30
            )
            seq = 0
        assert out.status == "ok"
        state = replay_wal_state(wal_path)
        assert state["settled"][str(seq)] == {
            "status": "ok", "reason": "", "degraded_to": None,
        }
        assert not state["open_leases"]

    def test_settle_is_durable_before_the_caller_wakes(self, tmp_path):
        wal = SettleProbeWAL(str(tmp_path / "probe.wal"))
        with quiet(), JobService(workers=2, shards=2, wal=wal) as svc:
            specs = [
                JobSpec("estimate", point(threads=1 + i % 4, engine="estimate"))
                for i in range(24)
            ]
            tickets = [wal.submit(svc, spec) for spec in specs]
            outs = [t.result(timeout=30) for t in tickets]
        assert all(o.status in ("ok", "coalesced") for o in outs)
        assert sorted(wal.settle_seqs) == sorted(t.seq for t in tickets)
        assert wal.awake_at_commit == [False] * len(tickets)
        settled = replay_wal_state(wal.replay())["settled"]
        assert {int(s): r["status"] for s, r in settled.items()} == {
            t.seq: o.status for t, o in zip(tickets, outs)
        }
        wal.close()


# ----------------------------------------------------------------- service
class TestServiceWithShards:
    def test_ok_path_bitwise_identical(self):
        p = point()
        with quiet(), JobService(workers=2, shards=2) as svc:
            out = svc.submit(JobSpec("simulate", p)).result(timeout=30)
        assert out.status == "ok"
        assert sim_result_to_dict(out.value) == sim_result_to_dict(
            p.evaluate(engine="simulate")
        )

    def test_killed_job_retried_on_replacement_and_breaker_untripped(self):
        # Kill attempt #0 of the simulate rung; the retry (#1) runs on
        # the replacement shard and succeeds.
        faults = kill_spec("j0|simulate#0")
        with quiet(), JobService(
            workers=1, shards=2, shard_faults=faults,
        ) as svc:
            out = svc.submit(
                JobSpec("simulate", point(), label="j0")
            ).result(timeout=30)
            assert out.status == "ok", out
            assert [f.kind for f in out.failures] == ["signal_exit"]
            assert all(f.recovered for f in out.failures)
            # Shard death must not trip the engine's breaker.
            for key, br in svc.breakers().items():
                assert br.state == "closed", (key, br.state)
        assert svc.stats()["shards"]["restarts_total"] >= 1

    def test_deadline_during_replacement_settles_shed_exactly_once(self):
        # Satellite: every shard attempt is killed and the deadline is
        # shorter than the replacement churn — the job must settle as
        # shed (reason deadline), never hang, never double-settle.
        faults = kill_spec("jX|", count=10**6)
        with quiet(), JobService(
            workers=1, shards=1, shard_faults=faults,
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay_s=0.005, max_delay_s=0.02
            ),
            default_deadline_s=0.06,
        ) as svc:
            out = svc.submit(
                JobSpec("simulate", point(), label="jX")
            ).result(timeout=30)
            assert out.status == "shed", out
            assert out.reason == "deadline"
        assert svc.accounted()
        assert svc.counts["shed"] == 1 and svc.counts["submitted"] == 1

    def test_cluster_deadline_during_replacement_sheds_too(self):
        # The same ladder walks a cluster step's rank points, so the
        # same churn sheds it the same way.
        from repro.cluster import GEMINI, ClusterPoint

        step = ClusterPoint(
            Variant("series"), IVY_DESKTOP, GEMINI, nodes=2, box_size=8,
            domain_cells=(16, 16, 16), engine="simulate",
        )
        with quiet(), JobService(
            workers=1, shards=1, shard_faults=kill_spec("jC|", count=10**6),
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay_s=0.005, max_delay_s=0.02
            ),
            default_deadline_s=0.06,
        ) as svc:
            out = svc.submit(JobSpec("cluster", step, label="jC")).result(
                timeout=30
            )
        assert (out.status, out.reason) == ("shed", "deadline"), out
        assert svc.accounted() and svc.counts["shed"] == 1

    def test_shard_over_budget_sheds_as_byte_budget(self):
        with quiet(), JobService(
            workers=1, shards=1, shard_byte_budget=1,
        ) as svc:
            out = svc.submit(JobSpec("simulate", point())).result(timeout=30)
        assert out.status == "shed"
        assert out.reason == "byte_budget"

    def test_obs_counters_and_gauges_mirror_lifecycle(self):
        from repro.obs.metrics import default_registry

        faults = kill_spec("g0|simulate#0")
        with quiet(), JobService(
            workers=1, shards=2, shard_faults=faults,
        ) as svc:
            svc.submit(JobSpec("simulate", point(), label="g0")).result(
                timeout=30
            )
        snap = default_registry().snapshot()
        counters = snap["counters"]
        assert counters.get("serve.shards.spawned_total", 0) >= 3
        assert counters.get("serve.shards.restarts_total", 0) >= 1
        assert counters.get("serve.shards.leases_orphaned_total", 0) >= 1
        assert "serve.shards.alive" in snap["gauges"]

    def test_stats_census_clean_after_stop(self):
        svc = JobService(workers=1, shards=2)
        with quiet(), svc:
            svc.submit(JobSpec("simulate", point())).result(timeout=30)
        assert svc.census() == []
        assert svc.stats()["shards"]["alive"] == 0
