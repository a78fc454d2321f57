"""kernel_level: the paper's kernel, real NumPy numerics on a periodic 64^3 level.

One round advances every leg by one Euler step: six schedule variants
(the ``bench_kernel_walltime.py`` list) at box 32 (8 boxes) and box 16
(64 boxes), then a serial and a 2-thread level run for two of them.
One op is one cell update.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

from repro.box.copier import clear_copier_cache
from repro.exemplar import ExemplarProblem, reference_kernel
from repro.exemplar.reference import reference_on_level
from repro.parallel import run_schedule_parallel, shutdown_shared_pool
from repro.schedules import Variant, make_executor, run_schedule_on_level
from repro.solver import ExemplarOperator, TimeIntegrator
from repro.util import arena_stats, clear_arena, perf, reset_perf, track_allocations

from harness import Round, Tracer

#: (family, variant): the family names the per-layer metrics.
VARIANTS = (
    ("series", Variant("series", "P>=Box", "CLO")),
    ("series", Variant("series", "P>=Box", "CLI")),
    ("shift_fuse", Variant("shift_fuse", "P>=Box", "CLI")),
    ("blocked_wavefront", Variant("blocked_wavefront", "P<Box", "CLI", tile_size=8)),
    ("overlapped_basic", Variant("overlapped", "P<Box", "CLO", tile_size=8,
                                 intra_tile="basic")),
    ("overlapped_sf", Variant("overlapped", "P<Box", "CLO", tile_size=16,
                              intra_tile="shift_fuse")),
)
FAMILIES = ("series", "shift_fuse", "blocked_wavefront", "overlapped_basic",
            "overlapped_sf")
#: Serial vs 2-thread level runs (indices into VARIANTS).
PARALLEL = (0, 4)
THREADS = 2
DT = 1.0e-3
#: Set from the dtype: 4096 float64 epsilons (9e-13).  The legs sit a few
#: epsilons from the reference trajectory; one step moves the state by 1e-2.
REF_TOL = 4096 * float(np.finfo(np.float64).eps)


class Leg:
    """One (variant, box size) time integration."""

    def __init__(self, family: str, variant: Variant, problem: ExemplarProblem):
        self.family = family
        self.variant = variant
        self.problem = problem
        self.label = f"{variant.short_name}@{problem.box_size}"
        self.state = problem.make_phi0(exchange=False)
        self.operator = ExemplarOperator(variant)
        self.integrator = TimeIntegrator(self.state, self.operator, "euler")
        self.cells = problem.total_cells()


class KernelLevel:
    name = "kernel_level"
    setup_repeats = 3
    min_rounds = 2
    max_rounds = 1 << 30

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.level = 32 if smoke else 64
        self.box_sizes = (16,) if smoke else (32, 16)

    # ------------------------------------------------------------------ set-up
    def setup(self) -> None:
        clear_copier_cache()
        clear_arena()
        reset_perf()
        self.legs: list[Leg] = []
        self.phi0 = {}
        for bs in self.box_sizes:
            problem = ExemplarProblem((self.level,) * 3, box_size=bs)
            # The first exchange builds the level's copier plan.
            self.phi0[bs] = problem.make_phi0()
            for family, variant in VARIANTS:
                if variant.applicable_to_box(bs):
                    self.legs.append(Leg(family, variant, problem))
        self.par_box = self.box_sizes[0]
        self.rounds_done = 0
        self.par_results: dict[str, np.ndarray] = {}

    def teardown(self) -> None:
        shutdown_shared_pool()

    def instrument(self, tracer: Tracer) -> None:
        """Spans around the layer calls ``TimeIntegrator.step`` makes."""
        for leg in self.legs:
            leg.state.exchange = tracer.wrap("box.exchange", leg.state.exchange)
            leg.operator.increments = tracer.wrap(
                f"schedules.exec.{leg.family}", leg.operator.increments
            )

    # ------------------------------------------------------------------ one round
    def round(self, tracer: Tracer) -> Round:
        calls = []
        samples = {}
        attempted = 0
        clock = time.perf_counter
        for leg in self.legs:
            t = clock()
            with tracer.span("solver.step", leg.label):
                leg.integrator.step(DT)
            dt = clock() - t
            calls.append(dt)
            samples[leg.label] = (dt, leg.cells)
            attempted += leg.cells
        phi0 = self.phi0[self.par_box]
        cells = phi0.layout.total_cells()
        for index in PARALLEL:
            _, variant = VARIANTS[index]
            t = clock()
            with tracer.span("schedules.level_serial", variant.short_name):
                serial = run_schedule_on_level(variant, phi0)
            mid = clock()
            with tracer.span("parallel.level_2t", variant.short_name):
                par = run_schedule_parallel(variant, phi0, THREADS)
            end = clock()
            calls += [mid - t, end - mid]
            samples[f"serial:{variant.short_name}"] = (mid - t, cells)
            samples[f"parallel:{variant.short_name}"] = (end - mid, cells)
            attempted += 2 * cells
            self.par_results[variant.short_name] = (
                serial.to_global_array(), par.phi1.to_global_array()
            )
        self.rounds_done += 1
        return Round(0.0, 0.0, attempted, 0, calls, {"samples": samples})

    @staticmethod
    def throughput(rounds: list[Round]) -> float:
        """Cells per second of a round built from each leg's median time.

        A round is ~3 s, so only a few fit in a run; the median per leg
        discards a disturbed step where a median over whole rounds
        could not.
        """
        labels = rounds[0].extra["samples"]
        cells = sum(labels[k][1] for k in labels)
        seconds = sum(
            statistics.median(r.extra["samples"][k][0] for r in rounds)
            for k in labels
        )
        return cells / seconds

    # ------------------------------------------------------------------ checks
    def verify(self) -> int:
        """Cell updates whose result is not the reference's."""
        failed = 0
        rng = random.Random(self.seed)
        finals: dict[int, np.ndarray] = {}
        reference_final = self._reference_final()
        for leg in self.legs:
            bad = False
            final = leg.state.to_global_array()
            if not np.allclose(final, reference_final, rtol=REF_TOL, atol=REF_TOL):
                bad = True
            # Every variant advances the same state: bitwise equal finals.
            first = finals.setdefault(leg.problem.box_size, final)
            if not np.array_equal(first, final):
                bad = True
            # One seeded box of the final state against reference_kernel.
            leg.state.exchange()
            i = rng.randrange(len(leg.state))
            box = leg.state.layout.box(i)
            phi_g = np.asarray(leg.state[i].window(box.grow(leg.state.ghost)))
            ours = make_executor(leg.variant).run_fresh(phi_g)
            if not np.array_equal(ours, reference_kernel(phi_g)):
                bad = True
            if bad:
                failed += leg.cells * self.rounds_done
        reference = reference_on_level(self.phi0[self.par_box]).to_global_array()
        for serial, par in self.par_results.values():
            for got in (serial, par):
                if not np.array_equal(got, reference):
                    failed += reference[..., 0].size * self.rounds_done
        return failed

    def _reference_final(self) -> np.ndarray:
        """The legs' initial state advanced ``rounds_done`` Euler steps by
        ``reference_kernel`` alone.

        The whole periodic domain is one box whose ghost ring is a wrap
        of the array, so neither the layout, the exchange, the executors
        nor ``TimeIntegrator`` take part: an error they all share cannot
        hide.  ``reference_kernel`` returns phi + div F where the legs
        integrate div F accumulated from zero, so the two differ by the
        rounding of one subtraction per step; hence ``REF_TOL`` here and
        bitwise equality in every other check.
        """
        ghost = ((2, 2),) * 3 + ((0, 0),)
        phi = self.legs[0].problem.make_phi0(exchange=False).to_global_array()
        for _ in range(self.rounds_done):
            phi = phi + DT * (reference_kernel(np.pad(phi, ghost, mode="wrap")) - phi)
        return phi

    # ------------------------------------------------------------------ layers
    def layers(self, tracer: Tracer, traced: list) -> dict:
        totals = tracer.totals()
        wall = sum(r.wall_s for r in traced)
        traced_rounds = len(traced)

        def share(name: str) -> float:
            return totals.get(name, {}).get("self_s", 0.0) / wall if wall else 0.0

        out = {
            "box.exchange_share": share("box.exchange"),
            "box.exchange_points": sum(
                leg.state.stats.points for leg in self.legs
            ) / max(1, self.rounds_done),
            "solver.step_self_share": share("solver.step"),
            "schedules.level_serial_share": share("schedules.level_serial"),
            "parallel.level_2t_share": share("parallel.level_2t"),
        }
        exec_total = 0.0
        for family in FAMILIES:
            row = totals.get(f"schedules.exec.{family}")
            cells = sum(leg.cells for leg in self.legs if leg.family == family)
            out[f"schedules.exec.{family}.cells_per_s"] = (
                cells * traced_rounds / row["total_s"] if row else 0.0
            )
            exec_total += row["total_s"] if row else 0.0
            out[f"schedules.exec.{family}.tmp_peak_bytes"] = self._tmp_peak(family)
        out["schedules.exec_share"] = exec_total / wall if wall else 0.0
        serial = totals.get("schedules.level_serial", {}).get("total_s", 0.0)
        par = totals.get("parallel.level_2t", {}).get("total_s", 0.0)
        out["parallel.speedup_2t"] = serial / par if par else 0.0
        stats = arena_stats()
        takes = stats["hits"] + stats["misses"]
        out["util.arena.hit_rate"] = stats["hits"] / takes if takes else 0.0
        out["util.arena.bytes_reused"] = perf().get("arena.bytes_reused")
        return out

    def _tmp_peak(self, family: str) -> int:
        """Logical peak temporary bytes of one box run (Table I's quantity)."""
        leg = next((l for l in self.legs if l.family == family), None)
        if leg is None:
            return 0
        box = leg.state.layout.box(0)
        phi_g = np.asarray(leg.state[0].window(box.grow(leg.state.ghost)))
        with track_allocations() as tracker:
            make_executor(leg.variant).run_fresh(phi_g)
        return 8 * sum(tracker.peak_elements_by_tag().values())
