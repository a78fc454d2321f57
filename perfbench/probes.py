"""Stand-alone replays of each layer's public API, outside any workload.

Every traced run ends with the same probe suite on inputs generated
from the run's seed, so a layer's unit cost (us per call, items per
second) is measured in every traced run whatever the workload, and the
serve workloads can read their per-job stage costs from it.  Op counts
are fixed; each probe reports the median of its repeats.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import replace

from repro.analysis.traffic import variant_traffic
from repro.bench.runner import run_grid
from repro.box.box import Box
from repro.box.copier import ExchangeCopier
from repro.box.layout import decompose_domain
from repro.box.problem_domain import ProblemDomain
from repro.exemplar import random_initial_data, reference_kernel
from repro.machine.cache import SetAssociativeCache, StackDistanceProfile
from repro.machine.fastpath import workload_table
from repro.machine.trace import ArrayLayout, replay, stencil_sweep_trace
from repro.machine.workload import build_workload, clear_workload_cache
from repro.resilience.journal import WALJournal
from repro.serve import (
    BoundedPriorityQueue,
    ByteBudget,
    CircuitBreaker,
    JobService,
    MemoStore,
    ShardPool,
    canonical_job_key,
)

from harness import Tracer, closed_loop
from serve_loads import direct_value
from workloads import COMBOS, DOMAINS, Traffic, design_space

PROBE_JOBS = 300


def _timed(fn, repeats: int = 3) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def _us_per_call(fn, items, repeats: int) -> float:
    """Median microseconds per ``fn(item)`` over ``repeats`` passes of ``items``.

    One pass where a second would find what the first left behind (a
    cache filled, a key already derived, an entry already stored)."""
    def one_pass():
        for it in items:
            fn(it)
    return _timed(one_pass, repeats) / len(items) * 1e6


# ------------------------------------------------------------------ substrate
def substrate_probes(smoke: bool) -> dict:
    out = {}
    n = 16 if smoke else 32
    phi_g = random_initial_data((n + 4,) * 3, seed=42)
    out["exemplar.reference_cells_per_s"] = n ** 3 / _timed(lambda: reference_kernel(phi_g), 5)

    cells = (64, 64, 32) if smoke else (128, 128, 64)
    domain = ProblemDomain(Box.from_extents((0, 0, 0), cells))
    boxes = (cells[0] // 16) * (cells[1] // 16) * (cells[2] // 16)
    layouts = []
    out["box.layout_build_boxes_per_s"] = boxes / _timed(
        lambda: layouts.append(decompose_domain(domain, 16)))
    out["box.copier_build_boxes_per_s"] = boxes / _timed(
        lambda: ExchangeCopier(layouts[0], 2), 1 if not smoke else 3)

    m = 16 if smoke else 32
    layout = ArrayLayout(0, (m, m, m))
    accesses = sum(1 for _ in stencil_sweep_trace(layout, 2))
    out["machine.cache.sim_accesses_per_s"] = accesses / _timed(
        lambda: replay(stencil_sweep_trace(layout, 2), SetAssociativeCache(32 << 10)), 1)
    out["machine.cache.stackdist_accesses_per_s"] = accesses / _timed(
        lambda: StackDistanceProfile.from_trace(stencil_sweep_trace(layout, 2)), 1)
    return out


def model_probes(smoke: bool) -> dict:
    out = {}
    points = design_space()[:: 10 if smoke else 1]
    keys = sorted({(p.variant, p.box_size, p.domain_cells) for p in points}, key=repr)

    def build(key):
        v, b, dom = key
        return build_workload(v, b, domain_cells=dom, ncomp=5, dim=3)

    clear_workload_cache()
    workloads = []
    out["machine.workload.build_us"] = _us_per_call(lambda k: workloads.append(build(k)), keys, 1)
    out["machine.fastpath.table_build_us"] = _us_per_call(workload_table, workloads, 1)

    caches = [m.cache_per_thread_bytes(t) for m, t in COMBOS]
    shapes = [(v, b) for v, b, _ in keys]
    out["analysis.traffic.models_per_s"] = len(shapes) / _timed(
        lambda: [variant_traffic(v, b).dram_bytes_many(caches) for v, b in shapes])

    for p in points:  # warm every cache the estimate path reads
        p.evaluate()
    direct = _timed(lambda: [p.evaluate() for p in points])
    out["machine.estimate_warm.points_per_s"] = len(points) / direct
    grid = _timed(lambda: run_grid(points, max_workers=1))
    out["bench.run_grid.overhead_us"] = (grid - direct) / len(points) * 1e6

    # Cache thrash: cheap-to-build keys (boxes 64 and 128), one pass each
    # over a key set inside the 512-entry workload cache and one over it.
    thrash = sorted({(v, b, d) for d in DOMAINS + _THRASH_DOMAINS
                     for v, b, _ in keys if b >= 64 and all(c % b == 0 for c in d)},
                    key=repr)
    rng = random.Random(0)
    rng.shuffle(thrash)
    small, large = thrash[:330], thrash[:550]
    per_key = []
    for subset in (small, large):
        clear_workload_cache()
        for key in subset:
            build(key)
        per_key.append(_timed(lambda: [build(k) for k in subset], 1) / len(subset))
    out["machine.workload.thrash_ratio"] = per_key[1] / per_key[0]
    clear_workload_cache()
    return out


#: More domains for the thrash probe: with two box sizes per domain it
#: takes about ten domains to pass 512 workload keys.
_THRASH_DOMAINS = tuple((128 * a, 128 * b, 128 * c)
                       for a, b, c in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2),
                                       (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1),
                                       (4, 1, 1), (4, 2, 1), (4, 3, 1), (4, 4, 1)))


# ------------------------------------------------------------------ serve stages
def serve_probes(seed: int, smoke: bool, scratch: str) -> dict:
    out = {}
    n = PROBE_JOBS // 10 if smoke else PROBE_JOBS
    traffic = Traffic(seed, n)
    specs = traffic.round(0)
    out["serve.engine_direct_us"] = _us_per_call(direct_value, specs, 1)

    queue = BoundedPriorityQueue(64)

    def offer_take(i):
        queue.offer(i)
        queue.take(timeout=0)

    out["serve.queue.offer_take_us"] = _us_per_call(offer_take, range(2000), 3)
    budget = ByteBudget(1 << 40)
    out["serve.budget.admits_us"] = _us_per_call(lambda _: budget.admits(), range(2000), 3)
    breaker = CircuitBreaker("probe:estimate")

    def allow_record(_):
        breaker.allow()
        breaker.record_success()

    out["serve.breaker.allow_record_us"] = _us_per_call(allow_record, range(2000), 3)

    fresh = traffic.round(1)  # payloads no key has been derived for yet
    out["serve.memo.key_cold_us"] = _us_per_call(canonical_job_key, fresh, 1)
    out["serve.memo.key_warm_us"] = _us_per_call(canonical_job_key, fresh, 3)

    points = [s for s in specs if s.kind in ("estimate", "simulate")]
    keyed = [(canonical_job_key(s), s.kind, direct_value(s)) for s in points]
    store = MemoStore(limit_bytes=64 << 20)
    out["serve.memo.put_us"] = _us_per_call(lambda kv: store.put(*kv), keyed, 1)
    out["serve.memo.get_hit_us"] = _us_per_call(lambda kv: store.get(kv[0]), keyed, 3)
    out["serve.memo.get_miss_us"] = _us_per_call(
        lambda kv: store.get("absent:" + kv[0]), keyed, 3)
    stats = store.stats()
    out["serve.memo.probe_entry_bytes"] = stats["bytes"] / max(1, stats["entries"])
    store.close()

    tmp = tempfile.mkdtemp(prefix="perfbench-probe-", dir=scratch)
    try:
        wal = WALJournal(os.path.join(tmp, "wal.jsonl"))
        record = {"op": "settle", "seq": 0, "status": "ok", "reason": "",
                  "degraded_to": None}
        out["resilience.wal.commit_us"] = _us_per_call(
            lambda i: wal.commit(record), range(20 if smoke else 100), 1)
        wal.close()

        pool = ShardPool(2)
        t = time.perf_counter()
        pool.start()
        out["serve.shards.spawn_s"] = time.perf_counter() - t
        try:
            point = replace(design_space()[0], engine="estimate")
            pool.run(0, point, "estimate")  # warm the child's caches
            out["serve.shards.run_us"] = _us_per_call(
                lambda i: pool.run(i, point, "estimate"), range(1, 21 if smoke else 201), 1)
        finally:
            pool.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Adaptive control's tax: the same small round with and without it.
    # Each service gets rounds of its own, so neither finds the other's
    # phase costs cached.
    rates = {}
    for adaptive, warm, timed in ((False, 2, 3), (True, 4, 5)):
        with JobService(workers=2, queue_limit=64, adaptive=adaptive) as svc:
            closed_loop(svc, traffic.round(warm), Tracer(False), _ignore)
            t = time.perf_counter()
            closed_loop(svc, traffic.round(timed), Tracer(False), _ignore)
            rates[adaptive] = n / (time.perf_counter() - t)
    out["serve.adaptive.tax_ratio"] = rates[True] / rates[False]
    return out


def _ignore(index, ticket) -> None:
    pass


def run_all(seed: int, smoke: bool, scratch: str) -> dict:
    out = substrate_probes(smoke)
    out.update(model_probes(smoke))
    out.update(serve_probes(seed, smoke, scratch))
    return out
