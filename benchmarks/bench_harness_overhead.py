"""Execution-substrate overhead: figure-suite wall time and hit rates.

Times one cold pass (every substrate cache cleared) and one warm pass
of the paper's figure suite (Figs. 1-4, 9-12 + Table I), runs a real
threaded schedule to exercise the scratch arena, and writes the numbers
to ``BENCH_harness.json`` at the repo root — the start of the perf
trajectory for the harness itself.

Runs standalone (``python benchmarks/bench_harness_overhead.py``) or
under pytest.
"""

from __future__ import annotations

import json
import pathlib
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_harness.json"

#: Figure-suite wall time of the growth seed (commit e29a7db) measured
#: on this container: ``pytest benchmarks/bench_fig*.py`` before the
#: arena/caching substrate existed.
SEED_SUITE_WALL_S = 85.5

#: The same command with the substrate in place (same container, same
#: day) — the before/after pair for the perf trajectory.
PYTEST_SUITE_WALL_S = 19.6

#: Cold fig9 wall seconds recorded on this container immediately before
#: the vectorized fast path, workload/phase memoization, and analytic
#: tile counting landed.  Frozen: this anchor must never be re-measured,
#: it is the denominator of the fast-path speedup gate (>= 5x required,
#: ~10x targeted; see ``check_overhead_regression.py --fig9-min-speedup``).
FIG9_FROZEN_COLD_S = 6.63


def _clear_all_caches() -> None:
    from repro.util import reset_perf
    from repro.util.cache import clear_all_caches

    clear_all_caches()
    reset_perf()


def _run_figure_suite() -> dict[str, float]:
    """One pass over every figure generator; per-figure seconds."""
    from repro.bench import (
        fig1_ghost_ratio,
        fig9_best_by_box_size,
        scaling_figure,
        schedule_figure,
        table1,
    )

    out: dict[str, float] = {}
    passes = [
        ("fig1", fig1_ghost_ratio),
        ("fig2", lambda: scaling_figure("fig2")),
        ("fig3", lambda: scaling_figure("fig3")),
        ("fig4", lambda: scaling_figure("fig4")),
        ("table1", table1),
        ("fig9", fig9_best_by_box_size),
        ("fig10", lambda: schedule_figure("fig10")),
        ("fig11", lambda: schedule_figure("fig11")),
        ("fig12", lambda: schedule_figure("fig12")),
    ]
    for name, fn in passes:
        start = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - start
    return out


def _run_arena_probe() -> None:
    """A real threaded schedule execution, arena enabled."""
    from repro.box import LevelData
    from repro.exemplar import ExemplarProblem
    from repro.parallel import run_schedule_parallel
    from repro.schedules import Variant

    problem = ExemplarProblem(domain_cells=(16, 16, 16), box_size=8)
    phi0 = problem.make_phi0()
    # A second field over the same layout re-uses the cached exchange plan.
    other = LevelData(phi0.layout, ncomp=phi0.ncomp, ghost=phi0.ghost)
    other.exchange()
    for variant in (
        Variant("series", "P>=Box", "CLO"),
        Variant("overlapped", "P<Box", "CLO", tile_size=4, intra_tile="basic"),
    ):
        run_schedule_parallel(variant, phi0, 4, arena=True)
    # An independently constructed but content-equal layout: the plan
    # cache is keyed on layout *content*, so this run reuses the plan
    # built above (the old identity keys missed here).
    clone = ExemplarProblem(domain_cells=(16, 16, 16), box_size=8)
    clone.make_phi0().exchange()


def _engine_probe() -> None:
    """Touch both engines so every cache family records real traffic."""
    from repro.machine import (
        SANDY_BRIDGE,
        build_workload,
        engine_mode,
        estimate_workload,
        simulate_workload,
    )
    from repro.schedules import Variant

    wl = build_workload(
        Variant("blocked_wavefront", "P<Box", "CLO", tile_size=8), 16,
        (32, 32, 32),
    )
    for _ in range(2):
        simulate_workload(wl, SANDY_BRIDGE, 2)
        with engine_mode("fast"):
            estimate_workload(wl, SANDY_BRIDGE, 2)


def _fig9_fast_path() -> dict:
    """Cold fig9 under each engine mode vs the frozen pre-fast-path anchor.

    Every substrate cache is cleared before each timing, so the number
    includes workload construction, tile counting, and phase costing
    from scratch — the same work the frozen anchor paid.
    """
    from repro.bench import fig9_best_by_box_size
    from repro.machine import engine_mode

    out: dict = {"frozen_cold_s": FIG9_FROZEN_COLD_S}
    for mode in ("exact", "fast"):
        _clear_all_caches()
        with engine_mode(mode):
            t0 = time.perf_counter()
            fig9_best_by_box_size()
            dt = time.perf_counter() - t0
        out[f"cold_{mode}_s"] = round(dt, 4)
        out[f"speedup_{mode}_vs_frozen"] = round(FIG9_FROZEN_COLD_S / dt, 1)
    return out


def _obs_overhead() -> dict[str, float]:
    """Per-call cost of the observability hooks, in nanoseconds.

    The numbers that matter are the *disabled* ones: every execution
    layer calls ``span()``/``add_event()`` unconditionally, so their
    no-tracer fast path is what benchmark runs pay.  Best-of-repeats
    to shed scheduler noise; the regression gate
    (``benchmarks/check_overhead_regression.py``) compares these
    against the committed baseline.
    """
    from repro.obs import span, tracing
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import add_event, tracing_enabled

    n = 50_000

    def best_per_call_ns(fn, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            fn()
            best = min(best, time.perf_counter_ns() - t0)
        return best / n

    def loop_baseline() -> None:
        for _ in range(n):
            pass

    def loop_span() -> None:
        for _ in range(n):
            with span("bench.obs", i=1):
                pass

    def loop_event() -> None:
        for _ in range(n):
            add_event("bench.obs", i=1)

    reg = MetricsRegistry()

    def loop_counter() -> None:
        for _ in range(n):
            reg.counter_inc("bench.obs")

    assert not tracing_enabled()
    baseline_ns = best_per_call_ns(loop_baseline)
    noop_span_ns = best_per_call_ns(loop_span)
    disabled_event_ns = best_per_call_ns(loop_event)
    with tracing():
        traced_span_ns = best_per_call_ns(loop_span, repeats=3)
    counter_inc_ns = best_per_call_ns(loop_counter)
    return {
        "loop_baseline_ns": round(baseline_ns, 1),
        "noop_span_ns": round(noop_span_ns, 1),
        "add_event_disabled_ns": round(disabled_event_ns, 1),
        "traced_span_ns": round(traced_span_ns, 1),
        "counter_inc_ns": round(counter_inc_ns, 1),
    }


def _serve_overhead() -> dict:
    """Serving-layer tax: the fig2 grid direct vs through ``repro.serve``.

    Routed as one batch job — one queue hop, one ticket settle — which
    is how a caller would serve a whole figure.  Both paths run warm
    (the direct pass above already primed every cache) and best-of-
    repeats sheds scheduler noise at this millisecond scale.  The
    acceptance bar (``check_overhead_regression.py``): served within
    5% of direct, plus a small absolute grace for timer noise.

    The shard measurement routes the same grid point-by-point through
    two process shards — every point pays admission, a WAL-less lease,
    a pickle round-trip over the pipe, and a ticket settle.  Process
    isolation is allowed a wider bar (10% + 20 ms): it buys kill -9
    survival, and the children fork warm so the tax is pure transport.

    The adaptive measurement re-serves the same batch with the full
    overload-control loop armed — AIMD limiter, latency tracking, retry
    budgets, hedging — but *idle* (an unreachable SLO, no faults, no
    stragglers).  An idle limiter is pure bookkeeping per job: it must
    fit the same thin-front envelope as the plain served path (5% +
    10 ms), so turning adaptive control on costs nothing until it has
    overload to control.
    """
    from repro.bench.experiments import scaling_grid_points
    from repro.bench.runner import run_grid
    from repro.serve import AdaptiveConfig, JobService, serve_grid

    points = scaling_grid_points("fig2")
    run_grid(points)  # prime the caches both paths share
    repeats = 7

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    direct_s = best_of(lambda: run_grid(points))
    with JobService(workers=2, queue_limit=64) as svc:
        served_s = best_of(lambda: serve_grid(points, svc, batch=True))
    adaptive = AdaptiveConfig(
        slo_ms=3_600_000.0, retry_budget_ratio=0.5, hedge=True,
    )
    with JobService(
        workers=2, queue_limit=64, adaptive=adaptive,
    ) as svc:
        served_adaptive_s = best_of(
            lambda: serve_grid(points, svc, batch=True)
        )
        adaptive_stats = svc.stats()["adaptive"]
    with JobService(workers=2, queue_limit=64, shards=2) as svc:
        served_shards_s = best_of(
            lambda: serve_grid(points, svc, batch=False)
        )
    return {
        "grid_points": len(points),
        "direct_run_grid_s": round(direct_s, 6),
        "served_batch_s": round(served_s, 6),
        "overhead_ratio": round(served_s / direct_s, 4),
        "served_adaptive_s": round(served_adaptive_s, 6),
        "adaptive_overhead_ratio": round(served_adaptive_s / direct_s, 4),
        # The loop must have been armed yet idle: no backoffs, no
        # hedges, no budget spends — the measured tax is bookkeeping.
        "adaptive_idle": (
            adaptive_stats["limiter"]["backoffs"] == 0
            and adaptive_stats["hedges"]["launched"] == 0
            and all(
                b["spent"] == 0
                for b in adaptive_stats["retry_budgets"].values()
            )
        ),
        "served_shards_s": round(served_shards_s, 6),
        "shards_overhead_ratio": round(served_shards_s / direct_s, 4),
    }


def _cluster_overhead() -> dict:
    """Multi-node scaling tax: a ``ClusterPoint`` direct vs served.

    The served path builds the same decomposition + halo plan parent-
    side and routes only the per-distinct-box-count engine evaluations
    through the queue/breaker/shard machinery, so the tax is one queue
    hop plus one ticket settle per rank shape.  Same bar as the shard
    path (``check_overhead_regression.py``): served within 10% of
    direct, plus a 20 ms absolute grace.
    """
    from repro.cluster import GEMINI, ClusterPoint
    from repro.machine import MAGNY_COURS
    from repro.schedules import Variant
    from repro.serve import JobService, JobSpec

    point = ClusterPoint(
        Variant("series", "P>=Box", "CLO"),
        MAGNY_COURS,
        GEMINI,
        nodes=16,
        box_size=16,
        domain_cells=(64, 64, 64),
    )
    point.evaluate()  # prime the halo-plan and engine caches
    repeats = 7

    def best_of(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    direct_s = best_of(point.evaluate)

    def served(svc) -> None:
        out = svc.submit(JobSpec("cluster", point, label="bench.cluster"))
        outcome = out.result(timeout=30.0)
        assert outcome.status == "ok", outcome

    with JobService(workers=2, queue_limit=64) as svc:
        served_s = best_of(lambda: served(svc))
    return {
        "nodes": point.nodes,
        "direct_step_s": round(direct_s, 6),
        "served_step_s": round(served_s, 6),
        "overhead_ratio": round(served_s / direct_s, 4),
    }


def _memo_overhead() -> dict:
    """Memo-path tax and payoff: the fig2 grid cold vs 100%-hit warm.

    Cold clears every substrate cache per repeat and serves into a fresh
    in-memory :class:`MemoStore`, so the number is the full miss path:
    canonical key, grid evaluation from scratch, result encode + put.
    The bar is the usual thin-front envelope against an equally cold
    direct ``run_grid``: within 5% + 10 ms.

    Warm re-serves the identical grid against the populated store — a
    100% hit rate, so the job collapses to key + decode — and must come
    back at least 5x faster than cold with a bitwise-identical grid
    hash (``check_overhead_regression.py --memo-min-speedup``).

    The put leg asks whether storing a result costs less than
    recomputing it: the time to ``put`` every result of the design
    space Fig. 9 searches on one machine (every practical variant x
    paper box size, under both engines; results run from 1 to ~10^5
    phase times) over the time to evaluate the same points cold.  Every
    fig2 result holds a single phase time, so that grid cannot show it.
    ``check_overhead_regression.py`` gates the ratio, not the times.
    """
    from repro.bench.experiments import scaling_grid_points
    from repro.bench.runner import GridPoint, run_grid
    from repro.exemplar.problem import PAPER_BOX_SIZES
    from repro.machine.spec import MAGNY_COURS
    from repro.schedules import practical_variants
    from repro.serve import JobService, MemoStore, serve_grid

    points = scaling_grid_points("fig2")
    cold_repeats = 3

    def best_cold(fn) -> float:
        best = float("inf")
        for _ in range(cold_repeats):
            _clear_all_caches()
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    direct_cold_s = best_cold(lambda: run_grid(points))

    served_cold_s = float("inf")
    gr_cold = None
    for _ in range(cold_repeats):
        with JobService(workers=2, queue_limit=64, memo=True) as svc:
            _clear_all_caches()
            t0 = time.perf_counter()
            gr_cold = serve_grid(points, svc, batch=True)
            served_cold_s = min(served_cold_s, time.perf_counter() - t0)

    with JobService(workers=2, queue_limit=64, memo=True) as svc:
        serve_grid(points, svc, batch=True)  # populate the store
        best = float("inf")
        gr_warm = None
        for _ in range(7):
            t0 = time.perf_counter()
            gr_warm = serve_grid(points, svc, batch=True)
            best = min(best, time.perf_counter() - t0)
        served_warm_s = best
        memo_stats = svc.stats()["memo"]

    put_s = evaluate_s = 0.0
    design_points = 0
    for engine in ("estimate", "simulate"):
        for n in PAPER_BOX_SIZES:
            for variant in practical_variants():
                if not variant.applicable_to_box(n):
                    continue
                point = GridPoint(
                    variant, MAGNY_COURS, MAGNY_COURS.cores, n, engine=engine
                )
                result = point.evaluate()
                evaluate_s += best_cold(point.evaluate)
                # A fresh store per repeat: first write wins, so a
                # second put of one key would time a dict lookup.
                put_s += best_cold(
                    lambda: MemoStore().put("k", engine, result)
                )
                design_points += 1

    return {
        "grid_points": len(points),
        "direct_cold_s": round(direct_cold_s, 6),
        "served_cold_s": round(served_cold_s, 6),
        "cold_overhead_ratio": round(served_cold_s / direct_cold_s, 4),
        "served_warm_s": round(served_warm_s, 6),
        "warm_speedup": round(served_cold_s / served_warm_s, 1),
        "warm_hits": memo_stats["hits"],
        "warm_misses": memo_stats["misses"],
        "bitwise_equal": gr_cold.grid_hash == gr_warm.grid_hash,
        "design_points": design_points,
        "design_evaluate_cold_s": round(evaluate_s, 6),
        "design_put_s": round(put_s, 6),
        "put_over_evaluate_ratio": round(put_s / evaluate_s, 4),
    }


def collect() -> dict:
    from repro.util.perf import perf, publish_cache_gauges

    _clear_all_caches()
    t0 = time.perf_counter()
    cold_figures = _run_figure_suite()
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    _run_figure_suite()
    warm_s = time.perf_counter() - t0

    _run_arena_probe()
    _engine_probe()
    # Before the hit-rate read-out: gives the halo-plan cache traffic.
    cluster = _cluster_overhead()

    p = perf()
    # Also sets cache.<family>.hit_rate gauges on the default registry,
    # so a --metrics snapshot taken after a run carries the same numbers.
    hit_rates = publish_cache_gauges()
    report = {
        "seed": {
            "suite_wall_s": SEED_SUITE_WALL_S,
            "note": "pytest benchmarks/bench_fig*.py at the growth seed",
        },
        "current": {
            "pytest_suite_wall_s": PYTEST_SUITE_WALL_S,
            "cold_suite_s": round(cold_s, 3),
            "warm_suite_s": round(warm_s, 3),
            "per_figure_cold_s": {k: round(v, 3) for k, v in cold_figures.items()},
        },
        "speedup_pytest_suite_vs_seed": round(
            SEED_SUITE_WALL_S / PYTEST_SUITE_WALL_S, 2
        ),
        "speedup_cold_vs_seed": round(SEED_SUITE_WALL_S / cold_s, 2),
        "hit_rates": {k: round(v, 4) for k, v in sorted(hit_rates.items())},
        "arena": {
            "hits": p.get("arena.hits"),
            "misses": p.get("arena.misses"),
            "bytes_reused": p.get("arena.bytes_reused"),
        },
        "observability": _obs_overhead(),
        "serve": _serve_overhead(),
        "cluster": cluster,
        # Last two: both clear every cache per timing, so they cannot
        # run before the hit-rate read-out above.
        "fig9_fast_path": _fig9_fast_path(),
        "memo": _memo_overhead(),
    }
    return report


def test_harness_overhead():
    report = collect()
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    # The caches must actually be doing the work: the warm pass is far
    # cheaper than the cold pass, and every substrate layer records hits.
    assert report["current"]["warm_suite_s"] < report["current"]["cold_suite_s"]
    assert report["hit_rates"]["workload_cache"] > 0
    assert report["hit_rates"]["phase_cache"] > 0
    assert report["hit_rates"]["copier_cache"] > 0
    assert report["hit_rates"]["arena"] > 0
    # Canonical content keys must beat the identity keys they replaced
    # (phase cost was 0.54, exchange plans 0.50 before structure_key).
    assert report["hit_rates"]["phase_cache"] > 0.54, report["hit_rates"]
    assert report["hit_rates"]["copier_cache"] > 0.50, report["hit_rates"]
    # The fast-path gate: cold fig9 at least 5x faster than the frozen
    # pre-fast-path anchor, in BOTH engine modes (the exact engine gains
    # from phase/workload memoization alone).
    fig9 = report["fig9_fast_path"]
    assert fig9["speedup_exact_vs_frozen"] >= 5.0, fig9
    assert fig9["speedup_fast_vs_frozen"] >= 5.0, fig9
    # Disabled observability must stay near-free.  These are generous
    # absolute ceilings (machine-independent sanity, not the regression
    # gate — CI compares against the committed baseline).
    obs = report["observability"]
    assert obs["noop_span_ns"] < 5_000
    assert obs["add_event_disabled_ns"] < 5_000
    assert obs["counter_inc_ns"] < 10_000
    assert obs["traced_span_ns"] < 100_000
    # The serving layer must stay a thin front: routing the fig2 grid
    # through repro.serve within 5% of direct run_grid, plus a 10 ms
    # absolute grace (the grid itself is ~ms-scale warm, where a single
    # scheduler hiccup exceeds any sane relative bar).
    serve = report["serve"]
    assert serve["served_batch_s"] <= (
        serve["direct_run_grid_s"] * 1.05 + 0.010
    ), serve
    # An armed-but-idle adaptive loop (limiter + budgets + hedging with
    # nothing to do) pays the same thin-front bar as the plain path.
    assert serve["served_adaptive_s"] <= (
        serve["direct_run_grid_s"] * 1.05 + 0.010
    ), serve
    assert serve["adaptive_idle"], serve
    # Process isolation gets a wider bar — 10% + 20 ms — covering the
    # per-point pickle/pipe round-trips through two shards.
    assert serve["served_shards_s"] <= (
        serve["direct_run_grid_s"] * 1.10 + 0.020
    ), serve
    # The cluster job kind pays the same thin-front bar as the shard
    # path: served multi-node step within 10% + 20 ms of direct.
    cluster = report["cluster"]
    assert cluster["served_step_s"] <= (
        cluster["direct_step_s"] * 1.10 + 0.020
    ), cluster
    # The halo-plan cache must record real traffic once cluster jobs run.
    assert report["hit_rates"]["halo_cache"] > 0, report["hit_rates"]
    # Memo path: the cold miss leg pays the thin-front envelope against
    # an equally cold direct run, the 100%-hit warm leg repays at least
    # 5x, and the cached grid is bitwise-identical to the computed one.
    memo = report["memo"]
    assert memo["served_cold_s"] <= (
        memo["direct_cold_s"] * 1.05 + 0.010
    ), memo
    assert memo["warm_speedup"] >= 5.0, memo
    assert memo["warm_misses"] == 1 and memo["warm_hits"] >= 7, memo
    assert memo["bitwise_equal"], memo


if __name__ == "__main__":
    test_harness_overhead()
    print(f"wrote {OUT_PATH}")
