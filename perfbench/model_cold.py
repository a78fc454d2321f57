"""model_cold: the machine-model reproduction path, every rep from cold caches.

A CLI user pays the cold cost on every run, so nothing is warmed: each
rep clears every public cache, regenerates the nine figures, and runs
the full 2090-point design space through both engines.  One op is one
grid point.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

from repro.bench import (
    fig1_ghost_ratio,
    fig9_best_by_box_size,
    scaling_figure,
    schedule_figure,
    table1,
)
from repro.bench.runner import run_grid
from repro.box.copier import clear_copier_cache
from repro.cluster.halo import clear_halo_cache
from repro.machine import engine_mode
from repro.machine.simulator import clear_phase_cost_cache
from repro.machine.workload import build_workload, clear_workload_cache
from repro.util import clear_arena, perf, reset_perf

from harness import Round, Tracer, cache_hit_rates, cpu_seconds
from workloads import design_space

FIGURES = (
    ("fig1", fig1_ghost_ratio),
    ("fig2", lambda: scaling_figure("fig2")),
    ("fig3", lambda: scaling_figure("fig3")),
    ("fig4", lambda: scaling_figure("fig4")),
    ("table1", table1),
    ("fig9", fig9_best_by_box_size),
    ("fig10", lambda: schedule_figure("fig10")),
    ("fig11", lambda: schedule_figure("fig11")),
    ("fig12", lambda: schedule_figure("fig12")),
)
EXACT_SUBSET = 60
REL_TOL = 1.0e-9


def clear_all_caches() -> None:
    """Every public clear hook the substrate offers."""
    clear_workload_cache()
    clear_phase_cost_cache()
    clear_copier_cache()
    clear_halo_cache()
    clear_arena()
    reset_perf()


def checksum(results) -> str:
    """Digest of a result list's modeled numbers.

    The per-phase times enter as their count and sum: a design-space
    pass holds some twenty million of them, and hashing each would cost
    more than the engines do.
    """
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.time_s, r.flops, r.dram_bytes, len(r.phase_times),
                       sum(r.phase_times))).encode())
    return h.hexdigest()


def headline_shape_ok(fig2) -> bool:
    """README headline: Baseline N=128 flattens past 4 threads, and
    Shift-Fuse OT-16 N=128 ends within 10 % of Baseline N=16."""
    base16 = fig2.lines["Baseline: P>=Box, N=16"]
    base128 = fig2.lines["Baseline: P>=Box, N=128"]
    ot128 = fig2.lines["Shift-Fuse OT-16: P>=Box, N=128"]
    i4 = fig2.x.index(4)
    flat = base128[i4] / min(base128[i4:]) < 1.3
    return flat and abs(ot128[-1] - base16[-1]) <= 0.10 * base16[-1]


class ModelCold:
    name = "model_cold"
    cold = True  # every rep starts from cleared caches: nothing to warm
    setup_repeats = 3
    min_rounds = 3
    max_rounds = 1 << 30

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.stride = 10 if smoke else 1
        self.exact = EXACT_SUBSET // self.stride

    def setup(self) -> None:
        points = design_space()[:: self.stride]
        self.estimate_points = points
        self.simulate_points = [replace(p, engine="simulate") for p in points]
        step = max(1, len(points) // self.exact)
        self.subset_index = list(range(0, len(points), step))[: self.exact]
        self.subset = [self.simulate_points[i] for i in self.subset_index]
        self.sums: dict[str, str] = {}
        self.prebuild = False

    def teardown(self) -> None:
        pass

    def instrument(self, tracer: Tracer) -> None:
        # Every rep of the traced pass builds the distinct workloads itself
        # before the engines run, with a span or without: the same builds
        # run_grid would do, and traced / untraced is the cost of tracing.
        self.prebuild = True

    def round(self, tracer: Tracer) -> Round:
        clock = time.perf_counter
        calls = []
        cpu0 = cpu_seconds()
        t0 = clock()
        clear_all_caches()
        # One call a caller waits for is the figure suite or one grid leg:
        # single figures take 0.02-50 ms and jitter by a third between reps.
        t = clock()
        with tracer.span("bench.figures"):
            figures = {name: fn() for name, fn in FIGURES}
        calls.append(clock() - t)
        if self.prebuild:
            seen = set()
            for p in self.estimate_points:
                key = (p.variant, p.box_size, p.domain_cells, p.ncomp)
                if key not in seen:
                    seen.add(key)
                    with tracer.span("machine.workload.build"):
                        build_workload(p.variant, p.box_size,
                                       domain_cells=p.domain_cells, ncomp=p.ncomp,
                                       dim=len(p.domain_cells))
        legs = (
            ("machine.estimate", "exact", self.estimate_points),
            ("machine.simulate_fast", "auto", self.simulate_points),
            ("machine.simulate_exact", "exact", self.subset),
        )
        results = {}
        for name, mode, points in legs:
            t = clock()
            with tracer.span(name), engine_mode(mode):
                results[name] = run_grid(points, max_workers=1)
            calls.append(clock() - t)
        # The checks below read millions of numbers: keep them out of the
        # round's wall and CPU time.
        wall = clock() - t0
        cpu = cpu_seconds() - cpu0
        failed = 0 if headline_shape_ok(figures["fig2"]) else len(self.estimate_points)
        for name, _, _ in legs:
            failed += self._check_leg(name, results[name])
        fast = results["machine.simulate_fast"]
        for i, exact in zip(self.subset_index, results["machine.simulate_exact"]):
            if exact is None or fast[i] is None:
                continue  # already counted by _check_leg
            if abs(fast[i].time_s - exact.time_s) > REL_TOL * abs(exact.time_s):
                failed += 1
        attempted = sum(len(points) for _, _, points in legs)
        return Round(wall, cpu, attempted, min(failed, attempted), calls)

    def _check_leg(self, name: str, results) -> int:
        """Missing points, or a whole leg whose numbers moved between reps."""
        missing = sum(1 for r in results if r is None)
        if missing:
            return missing
        digest = checksum(results)
        return 0 if self.sums.setdefault(name, digest) == digest else len(results)

    def verify(self) -> int:
        return 0  # every check runs inside the rep

    def layers(self, tracer: Tracer, traced: list) -> dict:
        totals = tracer.totals()
        wall = sum(r.wall_s for r in traced)
        traced_rounds = len(traced)
        counts = perf().snapshot()["counts"]

        def share(name: str) -> float:
            return totals.get(name, {}).get("total_s", 0.0) / wall if wall else 0.0

        def rate(name: str, points: int) -> float:
            row = totals.get(name)
            return points * traced_rounds / row["total_s"] if row else 0.0

        out = {
            "bench.figures_share": share("bench.figures"),
            "machine.workload.build_share": share("machine.workload.build"),
            "machine.workload.builds": counts.get("workload_cache.misses", 0),
            "machine.estimate.points_per_s": rate(
                "machine.estimate", len(self.estimate_points)),
            "machine.simulate_fast.points_per_s": rate(
                "machine.simulate_fast", len(self.simulate_points)),
            "machine.simulate_exact.points_per_s": rate(
                "machine.simulate_exact", len(self.subset)),
        }
        out.update(cache_hit_rates(counts))
        return out
