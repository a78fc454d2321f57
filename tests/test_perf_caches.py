"""Substrate caches and the parallel grid runner.

Covers the process-wide workload cache, the structural phase-cost memo
key (regression for the old ``id()``-based key), the shared exchange
copier plans, the shared thread pool, ``run_grid``, and the perf
counters / CLI surface.
"""

import pytest

from repro.analysis.traffic import TrafficModel
from repro.bench import GridPoint, run_grid, set_grid_workers, time_variant
from repro.bench.__main__ import main as bench_main
from repro.box import Box, LevelData, ProblemDomain, decompose_domain
from repro.box.copier import clear_copier_cache, shared_copier
from repro.cluster import clear_halo_cache, decompose_ranks, halo_plan
from repro.machine import (
    SANDY_BRIDGE,
    MachineSpec,
    build_workload,
    engine_mode,
    estimate_workload,
    simulate_workload,
)
from repro.machine import simulator
from repro.machine.simulator import clear_phase_cost_cache
from repro.machine.workload import Phase, WorkItem, Workload, clear_workload_cache
from repro.parallel import get_shared_pool, run_schedule_parallel, shutdown_shared_pool
from repro.schedules import Variant
from repro.util.perf import format_perf_report, perf, reset_perf


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_workload_cache()
    clear_phase_cost_cache()
    reset_perf()
    yield
    clear_workload_cache()
    clear_phase_cost_cache()
    reset_perf()


V = Variant("series", "P<Box", "CLO")


class TestWorkloadCache:
    def test_identical_requests_share_one_workload(self):
        a = build_workload(V, 16, (32, 32, 32))
        b = build_workload(V, 16, (32, 32, 32))
        assert a is b
        assert perf().get("workload_cache.hits") == 1
        assert perf().get("workload_cache.misses") == 1

    def test_distinct_keys_distinct_workloads(self):
        a = build_workload(V, 16, (32, 32, 32))
        assert build_workload(V, 8, (32, 32, 32)) is not a
        assert build_workload(V, 16, (32, 32, 32), ncomp=3) is not a
        assert build_workload(Variant("shift_fuse", "P<Box", "CLO"), 16, (32, 32, 32)) is not a

    def test_clear_forces_rebuild(self):
        a = build_workload(V, 16, (32, 32, 32))
        clear_workload_cache()
        assert build_workload(V, 16, (32, 32, 32)) is not a

    def test_sequence_domain_normalized(self):
        assert build_workload(V, 16, [32, 32, 32]) is build_workload(
            V, 16, (32, 32, 32)
        )


class TestStructuralPhaseKey:
    """Regression: the estimator memo key must be content-based.

    The old key, ``tuple(id(g) for g in phase.groups)``, could alias two
    different phases when the allocator recycled tuple ids, and never
    hit across calls for equal-content phases.
    """

    def _phase(self, flops, count):
        p = Phase("p")
        p.add(WorkItem("i", flops, TrafficModel(64.0)), count)
        return p

    def test_equal_content_equal_key_across_objects(self):
        assert self._phase(10.0, 4).structure_key() == self._phase(10.0, 4).structure_key()

    def test_different_content_different_key(self):
        base = self._phase(10.0, 4).structure_key()
        assert self._phase(11.0, 4).structure_key() != base
        assert self._phase(10.0, 5).structure_key() != base

    def test_add_invalidates_cached_key(self):
        p = self._phase(10.0, 4)
        before = p.structure_key()
        p.add(WorkItem("j", 5.0, TrafficModel(8.0)))
        after = p.structure_key()
        assert after != before
        assert len(after) == 2

    def test_rebuilt_workload_hits_phase_cost_cache(self):
        # Same content, brand-new Phase/WorkItem objects: the cost cache
        # must hit (the id()-keyed memo never could).
        wl1 = build_workload(V, 16, (32, 32, 32))
        r1 = estimate_workload(wl1, SANDY_BRIDGE, 4)
        misses_after_first = perf().get("phase_cache.misses")
        clear_workload_cache()
        wl2 = build_workload(V, 16, (32, 32, 32))
        assert wl2 is not wl1
        r2 = estimate_workload(wl2, SANDY_BRIDGE, 4)
        assert perf().get("phase_cache.misses") == misses_after_first
        assert perf().get("phase_cache.hits") >= 1
        assert r2.time_s == r1.time_s
        assert r2.phase_times == r1.phase_times

    def test_cached_cost_matches_uncached(self):
        wl = build_workload(V, 16, (32, 32, 32))
        cold = estimate_workload(wl, SANDY_BRIDGE, 4)
        warm = estimate_workload(wl, SANDY_BRIDGE, 4)
        assert warm.time_s == cold.time_s
        assert warm.dram_bytes == cold.dram_bytes
        # Thread count is part of the key: a different count recomputes.
        other = estimate_workload(wl, SANDY_BRIDGE, 2)
        assert other.time_s != cold.time_s


class TestMergedGroups:
    """``Phase.merged_groups``: one cached merge behind the cost key."""

    A = WorkItem("a", 10.0, TrafficModel(64.0))
    B = WorkItem("b", 3.0, TrafficModel(8.0))

    def _phase(self, *groups):
        p = Phase("p")
        for item, count in groups:
            p.add(item, count)
        return p

    def test_add_clears_merged_groups_and_both_keys(self):
        p = self._phase((self.A, 2), (self.B, 1))
        merged, skey, ckey = p.merged_groups(), p.structure_key(), p.cost_key()
        assert p.merged_groups() is merged  # cached
        p.add(self.A, 3)
        assert sorted(p.merged_groups(), key=lambda g: g[0].label) == [
            (self.A, 5), (self.B, 1)
        ]
        assert p.structure_key() != skey
        assert p.cost_key() != ckey
        assert dict(p.cost_key()) == {self.A.structure_key: 5, self.B.structure_key: 1}

    def test_cost_key_ignores_group_order_and_splits(self):
        ab = self._phase((self.A, 4), (self.B, 2))
        ba = self._phase((self.B, 2), (self.A, 4))
        split = self._phase((self.A, 1), (self.B, 1), (self.A, 3), (self.B, 1))
        assert ab.cost_key() == ba.cost_key() == split.cost_key()
        assert ab.merged_groups() == ba.merged_groups() == split.merged_groups()
        assert self._phase((self.A, 4), (self.B, 3)).cost_key() != ab.cost_key()

    def test_merge_keeps_first_item_of_equal_content(self):
        twin = WorkItem("twin", 10.0, TrafficModel(64.0))
        p = self._phase((twin, 1), (self.A, 2))
        [(item, count)] = p.merged_groups()
        assert item is twin and count == 3

    def test_structure_key_follows_group_order(self):
        # The event engine's queue follows group order, so its key must.
        ab = self._phase((self.A, 4), (self.B, 2))
        ba = self._phase((self.B, 2), (self.A, 4))
        assert ab.structure_key() != ba.structure_key()


class TestEventEngineWork:
    """The event engine prices each group once, not each queued copy.

    Counted, not timed: a wall-clock guard would be noisy.
    """

    def test_one_item_cost_per_group(self, monkeypatch):
        a = WorkItem("a", 2.0e6, TrafficModel(3.0e5))
        b = WorkItem("b", 5.0e5, TrafficModel(9.0e5))
        p = Phase("many")
        for item, count in ((a, 300), (b, 500), (a, 200)):
            p.add(item, count)
        wl = Workload(V, 16, 1, 5, 3)
        wl.phases = [p]

        calls = []
        real = simulator._item_cost
        monkeypatch.setattr(
            simulator, "_item_cost", lambda *args: calls.append(1) or real(*args)
        )
        bw_calls = []
        real_bw = MachineSpec.available_bw_gbs
        monkeypatch.setattr(
            MachineSpec,
            "available_bw_gbs",
            lambda self, k: bw_calls.append(k) or real_bw(self, k),
        )
        with engine_mode("exact"):
            simulate_workload(wl, SANDY_BRIDGE, 16)
        # One per group for the flops/bytes bookkeeping, one per group
        # for the event queue: 6, where pricing each copy would be 1003.
        assert len(calls) == 2 * len(p.groups)
        # Bandwidth at most once per concurrency level 1..threads.
        assert bw_calls and len(bw_calls) == len(set(bw_calls))
        assert all(1 <= k <= 16 for k in bw_calls)


class TestCopierCache:
    def _layout(self, n=8, box=4):
        domain = ProblemDomain(Box.cube(n, 3), periodic=(True,) * 3)
        return decompose_domain(domain, box)

    def test_leveldata_share_plan_per_layout_and_ghost(self):
        clear_copier_cache()
        lay = self._layout()
        a = LevelData(lay, ncomp=1, ghost=2)
        b = LevelData(lay, ncomp=5, ghost=2)
        assert a.copier() is b.copier()
        assert perf().get("copier_cache.hits") >= 1

    def test_distinct_ghost_distinct_plan(self):
        clear_copier_cache()
        lay = self._layout()
        assert shared_copier(lay, 1) is not shared_copier(lay, 2)
        assert shared_copier(lay, 2) is shared_copier(lay, 2)

    def test_content_equal_layouts_share_plan(self):
        # Independently constructed but content-equal layouts hit the
        # same plan: the cache keys on layout content, not identity.
        clear_copier_cache()
        a = shared_copier(self._layout(), 2)
        before = perf().get("copier_cache.hits")
        assert shared_copier(self._layout(), 2) is a
        assert perf().get("copier_cache.hits") == before + 1

    def test_genuinely_distinct_layouts_distinct_plan(self):
        clear_copier_cache()
        assert shared_copier(self._layout(box=4), 2) is not shared_copier(
            self._layout(box=8), 2
        )
        # Same boxes, different rank assignment -> different plan key
        # (off-rank accounting depends on ranks).
        domain = ProblemDomain(Box.cube(8, 3), periodic=(True,) * 3)
        one = decompose_domain(domain, 4, num_ranks=1)
        two = decompose_domain(domain, 4, num_ranks=2)
        assert shared_copier(one, 2) is not shared_copier(two, 2)


class TestPlanWorkBound:
    """Plans are built from structure: counted calls, not a stopwatch."""

    @staticmethod
    def _count(monkeypatch, cls, name):
        calls = []
        real = getattr(cls, name)

        def counted(self, *args):
            calls.append(1)
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_paper_layout_needs_no_intersection(self, monkeypatch):
        # 12 288 boxes (the paper's 16^3 split, scaled by 1/8 per axis):
        # the grid index is the disjointness proof.
        intersects = self._count(monkeypatch, Box, "intersect")
        domain = ProblemDomain(Box.from_extents((0, 0, 0), (64, 48, 32)))
        assert len(decompose_domain(domain, 2)) == 12288
        assert not intersects

    def test_halo_plan_enumerates_class_representatives_only(self, monkeypatch):
        clear_halo_cache()
        shifts = self._count(monkeypatch, ProblemDomain, "periodic_shifts")
        cells = (256, 192, 128)  # 16 x 12 x 8 boxes of 16, periodic
        first = halo_plan(decompose_ranks(cells, 16, 8).layout, 2)
        assert 0 < len(shifts) <= 27  # not once per each of 1 536 boxes
        del shifts[:]
        # Another rank map over the same geometry refolds the tally.
        second = halo_plan(decompose_ranks(cells, 16, 64).layout, 2)
        assert not shifts
        assert first.total_points == second.total_points
        assert first.off_rank_points < second.off_rank_points


class TestSharedPool:
    def test_pool_reused_until_grown(self):
        shutdown_shared_pool()
        p2 = get_shared_pool(2)
        assert get_shared_pool(2) is p2
        assert get_shared_pool(1) is p2  # smaller request, same pool
        p4 = get_shared_pool(4)
        assert p4 is not p2
        assert get_shared_pool(3) is p4
        shutdown_shared_pool()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            get_shared_pool(0)

    def test_run_plan_does_not_recreate_pool(self):
        from repro.exemplar import ExemplarProblem

        shutdown_shared_pool()
        problem = ExemplarProblem(domain_cells=(8, 8, 8), box_size=8)
        phi0 = problem.make_phi0()
        run_schedule_parallel(V, phi0, 2)
        pool = get_shared_pool(2)
        run_schedule_parallel(V, phi0, 2)
        assert get_shared_pool(2) is pool
        shutdown_shared_pool()


class TestRunGrid:
    def _points(self):
        return [
            GridPoint(v, SANDY_BRIDGE, t, 16, (32, 32, 32))
            for v in (V, Variant("shift_fuse", "P<Box", "CLO"))
            for t in (1, 2, 4)
        ]

    def test_parallel_matches_sequential_in_order(self):
        pts = self._points()
        seq = run_grid(pts, max_workers=1)
        par = run_grid(pts, max_workers=4)
        assert [r.time_s for r in par] == [r.time_s for r in seq]
        assert [r.threads for r in par] == [p.threads for p in pts]
        assert [r.variant for r in par] == [p.variant.label for p in pts]

    def test_empty_grid(self):
        assert run_grid([]) == []

    def test_grid_matches_time_variant(self):
        pts = self._points()
        grid = run_grid(pts)
        for p, r in zip(pts, grid):
            direct = time_variant(
                p.variant, p.machine, p.threads, p.box_size, p.domain_cells
            )
            assert r.time_s == direct.time_s


class TestPerfCLI:
    def test_perf_flag_prints_report(self, capsys):
        assert bench_main(["--perf", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "substrate perf counters:" in out
        assert "figure.fig1" in out

    def test_jobs_flag(self, capsys):
        try:
            assert bench_main(["--jobs", "2", "fig1"]) == 0
        finally:
            set_grid_workers(None)
        assert "Fig. 1" in capsys.readouterr().out

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["--frobnicate"])
        with pytest.raises(SystemExit):
            bench_main(["--jobs"])

    def test_report_format_hit_rates(self):
        build_workload(V, 16, (32, 32, 32))
        build_workload(V, 16, (32, 32, 32))
        report = format_perf_report()
        assert "workload cache: 1 hits / 1 misses (50.0%)" in report
