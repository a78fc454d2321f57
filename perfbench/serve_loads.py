"""The four serve_* workloads: one long-lived JobService under closed-loop load.

One driver thread keeps 16 jobs outstanding; the service gets
``workers=2`` (and ``shards=2`` where used).  A round is a fixed job
list; one op is one job settled correctly.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time

from repro.serve import JobService, replay_wal_state
from repro.util import perf

from harness import (
    OUT_DIR, Round, Tracer, cache_hit_rates, closed_loop, cpu_seconds, percentile,
)
from model_cold import clear_all_caches
from workloads import KIND_MIX, MAX_ROUNDS, POINT_MIX, Traffic

STATUSES = ("ok", "coalesced", "shed", "degraded", "failed")
MEMO_LIMIT = 64 << 20
#: Jobs of a fresh round replayed through direct evaluation for the engine share.
ENGINE_REPLAY_JOBS = 300


def direct_value(spec):
    """What the engines return for ``spec`` with no service in the way."""
    if spec.kind == "grid":
        return [p.evaluate() for p in spec.payload]
    if spec.kind == "cluster":
        return spec.payload.evaluate()
    return spec.payload.evaluate(engine=spec.kind)


def same_value(kind: str, served, direct) -> bool:
    """Bitwise equality of a served value and the direct one (dataclass eq)."""
    if kind == "grid":
        return served is not None and list(served) == direct
    return served == direct


class ServeWorkload:
    """Shared protocol; subclasses fix the service config and the traffic."""

    name = ""
    jobs = 0  # per round
    smoke_jobs = 0
    warm_rounds = 1
    setup_repeats = 3
    min_rounds = 3
    # Rotations left after two warm-up rounds, the traced pass's own warm-up
    # and the engine replay of the cost shares.
    max_rounds = MAX_ROUNDS - 4
    mix = KIND_MIX
    good = ("ok",)
    hot = 0
    hot_share = 0.0
    #: Whether every round brings keys the service has not seen.
    fresh_rounds = False
    service_args: dict = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n = self.smoke_jobs if smoke else self.jobs
        self.hot_n = max(8, self.hot // 10) if smoke and self.hot else self.hot
        self.service: JobService | None = None
        self.tmpdir: str | None = None
        self.expect = direct_value

    # ------------------------------------------------------------------ set-up
    def make_service(self) -> JobService:
        return JobService(workers=2, **self.service_args)

    def setup(self) -> None:
        clear_all_caches()
        self.traffic = Traffic(self.seed, self.n, self.mix, hot=self.hot_n,
                               hot_share=self.hot_share,
                               fresh_rounds=self.fresh_rounds)
        self.service = self.make_service().start()
        self.statuses = dict.fromkeys(STATUSES, 0)
        self.settled: dict[str, str] = {}
        self.checked = 0
        self.latencies: list[float] = []
        self.next_round = 0
        tracer = Tracer(False)
        if self.hot_n:
            self._drive(self.traffic.hot_jobs(), tracer)
        for _ in range(self.warm_rounds):
            self._drive(self.traffic.round(self.next_round), tracer)
            self.next_round += 1
        self.latencies.clear()

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None

    def instrument(self, tracer: Tracer) -> None:
        pass  # closed_loop places the spans

    # ------------------------------------------------------------------ one round
    def _drive(self, specs, tracer: Tracer, picks=()) -> Round:
        """One pass of ``specs``; the picked jobs' values are checked against
        direct evaluation after the clock stops, then dropped."""
        picks = set(picks)
        samples = []
        failed = 0

        def on_settled(index, ticket):
            nonlocal failed
            outcome = ticket.result()
            self.statuses[outcome.status] += 1
            self.settled[str(ticket.seq)] = outcome.status
            failed += outcome.status not in self.good
            if index in picks:
                samples.append((specs[index], outcome.value))

        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        latencies = closed_loop(self.service, specs, tracer, on_settled)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        for spec, value in samples:
            failed += not same_value(spec.kind, value, self.expect(spec))
        self.checked += len(samples)
        return Round(wall, cpu, len(specs), failed, latencies)

    def round(self, tracer: Tracer) -> Round:
        r = self.next_round
        self.next_round += 1
        rnd = self._drive(self.traffic.round(r), tracer, self.traffic.verify_picks(r))
        self.latencies += rnd.calls
        return rnd

    # ------------------------------------------------------------------ checks
    def verify(self) -> int:
        """Failed ops the rounds could not see: the settle-once accounting."""
        return 0 if self.service.accounted() else 1

    # ------------------------------------------------------------------ layers
    def executed_specs(self) -> list:
        """A fresh round's jobs that reach the engines (memo hits do not)."""
        r = min(self.next_round, MAX_ROUNDS - 1)
        return [s for s, slot in zip(self.traffic.round(r), self.traffic.pattern)
                if slot < 0]

    def layers(self, tracer: Tracer, traced: list) -> dict:
        stats = self.service.stats()
        memo = stats["memo"] or {}
        lookups = memo.get("hits", 0) + memo.get("misses", 0)
        lat = sorted(self.latencies)
        out = {
            "serve.memo.hit_rate": memo.get("hits", 0) / lookups if lookups else 0.0,
            "serve.memo.evictions": memo.get("evictions", 0),
            "serve.memo.entry_bytes": (
                memo["bytes"] / memo["entries"] if memo.get("entries") else 0.0
            ),
            "serve.coalesced": stats["counts"]["coalesced"],
            "serve.queue_high_water": stats["queue"].get("high_water", 0),
            "serve.latency_p99_over_p50": percentile(lat, 0.99) / percentile(lat, 0.50),
            "resilience.wal.commits_per_job": self._wal_commits_per_job(),
        }
        for status in STATUSES:
            out[f"serve.status.{status}"] = self.statuses[status]
        out.update(cache_hit_rates(perf().snapshot()["counts"]))
        return out

    def _wal_commits_per_job(self) -> float:
        return 0.0

    def cost_shares(self, traced_rounds: list, probe: dict, tracer: Tracer) -> dict:
        """Per-job stage costs as shares of the served CPU per job.

        ``probe`` holds the traced pass's values so far: the stand-alone
        probes and this workload's ``layers()``.
        Stage costs come from the stand-alone probes times how often a
        job passes the stage (public stats); the engine's share replays
        a prefix of a fresh round through direct evaluation.  What is
        left is the residual: thread hand-off, settle, bookkeeping.
        """
        cpu_us = statistics.median(r.cpu_s for r in traced_rounds) / self.n * 1e6
        stats = self.service.stats()
        served = sum(self.statuses.values())
        memo = stats["memo"] or {"hits": 0, "misses": 0, "written": 0}
        executed = self.executed_specs()
        prefix = executed[:ENGINE_REPLAY_JOBS]
        t = time.perf_counter()
        for spec in prefix:
            direct_value(spec)
        engine_us = (time.perf_counter() - t) / len(prefix) * 1e6
        executed_share = len(executed) / self.n
        submit_us = (tracer.totals().get("serve.submit", {}).get("total_s", 0.0)
                     / (len(traced_rounds) * self.n) * 1e6)
        cold = 1.0 - self.traffic.duplicate_fraction
        costs = {
            "engine": engine_us * executed_share,
            "key": (probe["serve.memo.key_cold_us"] * cold
                    + probe["serve.memo.key_warm_us"] * (1.0 - cold)),
            "submit": submit_us,
            "queue": probe["serve.queue.offer_take_us"],
            "breaker": probe["serve.breaker.allow_record_us"] * executed_share,
            "memo_get": (memo["hits"] * probe["serve.memo.get_hit_us"]
                         + memo["misses"] * probe["serve.memo.get_miss_us"]) / served,
            "memo_put": memo["written"] * probe["serve.memo.put_us"] / served,
            "wal": (probe["resilience.wal.commits_per_job"]
                    * probe["resilience.wal.commit_us"]),
        }
        out = {f"serve.cost.{k}_share": v / cpu_us for k, v in costs.items()}
        out["serve.cost.residual_share"] = 1.0 - sum(out.values())
        return out


class ServePlain(ServeWorkload):
    name = "serve_plain"
    jobs, smoke_jobs = 1000, 100
    service_args = {"queue_limit": 64}


class ServeMemoMiss(ServeWorkload):
    name = "serve_memo_miss"
    # 400, not 300: the constant-stride sample of 300 holds one job that
    # takes 0.3 s and stalls the 16-job window behind it, and 16 of 300
    # is 5.3 %, which left p95 on the edge of a plateau.
    jobs, smoke_jobs = 400, 40
    # Two rounds of puts fill the 64 MiB store, so measured rounds evict.
    warm_rounds = 2
    setup_repeats = 1
    fresh_rounds = True
    service_args = {"memo": True, "memo_limit_bytes": MEMO_LIMIT}


class ServeMemoHit(ServeWorkload):
    name = "serve_memo_hit"
    jobs, smoke_jobs = 2000, 200
    hot, hot_share = 256, 0.95
    setup_repeats = 1
    fresh_rounds = True
    good = ("ok", "coalesced")
    service_args = {"memo": True, "memo_limit_bytes": MEMO_LIMIT}


class ServeShards(ServeWorkload):
    name = "serve_shards"
    jobs, smoke_jobs = 400, 40
    mix = POINT_MIX

    def make_service(self) -> JobService:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(prefix="perfbench-wal-", dir=OUT_DIR)
        self.wal_path = os.path.join(self.tmpdir, "wal.jsonl")
        return JobService(workers=2, shards=2, wal=self.wal_path)

    def verify(self) -> int:
        failed = super().verify()
        # The WAL is complete once the service has drained and closed it.
        self.service.stop()
        self.service = None
        replayed = replay_wal_state(self.wal_path)
        wal_settled = {seq: rec["status"] for seq, rec in replayed["settled"].items()}
        if wal_settled != self.settled:
            failed += len(set(wal_settled.items()) ^ set(self.settled.items()))
        failed += len(replayed["open_leases"])
        return failed

    def _wal_commits_per_job(self) -> float:
        # Counted by reading: opening a WALJournal on a live log may truncate it.
        with open(self.wal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        settles = sum('"op": "settle"' in line for line in lines)
        return (len(lines) - 1) / max(1, settles)
