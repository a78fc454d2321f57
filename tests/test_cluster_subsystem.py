"""Tests of the ``repro.cluster`` subsystem: topology, rank
decomposition, copier-derived halo analysis, node-level task graphs,
scaling sweeps, and the served ``cluster`` job kind."""

import random

import pytest

from repro.box import Box, ExchangeCopier, LevelData, ProblemDomain, decompose_domain
from repro.cluster import (
    DEFAULT_VARIANTS,
    FAT_TREE,
    GEMINI,
    HDR,
    POLICIES,
    ClusterPoint,
    ClusterSpec,
    InterconnectSpec,
    NodeGraph,
    clear_halo_cache,
    cluster_step,
    decompose_ranks,
    halo_plan,
    interconnect_by_name,
    near_cubic_grid,
    rank_workload_cells,
    weak_scaling,
)
from repro.cluster.decompose import rank_grid
from repro.machine import (
    MAGNY_COURS,
    SANDY_BRIDGE,
    build_workload,
    engine_mode,
    estimate_workload,
)
from repro.schedules import Variant
from repro.serve import JobService, JobSpec
from repro.util.perf import perf, reset_perf

SERIES = Variant("series", "P>=Box", "CLO")
OT = Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse")


class TestTopology:
    def test_link_bandwidth_caps_few_peers(self):
        ic = InterconnectSpec("x", bandwidth_gbs=10.0, latency_us=0.0, link_gbs=2.0)
        assert ic.effective_gbs(1) == pytest.approx(2.0)
        assert ic.effective_gbs(3) == pytest.approx(6.0)
        # Enough peers saturate injection; the node ceiling takes over.
        assert ic.effective_gbs(50) == pytest.approx(10.0)

    def test_contention_divides_bandwidth(self):
        ic = InterconnectSpec("x", bandwidth_gbs=10.0, latency_us=0.0, contention=0.5)
        assert ic.effective_gbs(1) == pytest.approx(10.0)
        assert ic.effective_gbs(3) == pytest.approx(10.0 / 2.0)

    def test_single_peer_is_seed_formula_bitwise(self):
        # The compat contract: one peer, any contention, equals the
        # seed's two-parameter closed form exactly.
        for ic in (GEMINI, FAT_TREE, HDR):
            got = ic.transfer_seconds(1.5e9, 7, peers=1)
            want = 1.5e9 / (ic.bandwidth_gbs * 1e9) + 7 * ic.latency_us * 1e-6
            assert got == want

    def test_more_peers_never_speed_up(self):
        t1 = GEMINI.transfer_seconds(1e9, 4, peers=6)
        t0 = GEMINI.transfer_seconds(1e9, 4, peers=1)
        assert t1 >= t0

    def test_lookup(self):
        assert interconnect_by_name("hdr") is HDR
        with pytest.raises(ValueError):
            interconnect_by_name("myrinet")


class TestDecompose:
    def test_all_policies_conserve_boxes_and_cells(self):
        domain = (32, 32, 32)
        for policy in POLICIES:
            for ranks in (1, 3, 8, 64):
                dec = decompose_ranks(domain, 8, ranks, policy)
                assert dec.num_ranks == ranks
                assert sum(dec.boxes_per_rank()) == 64
                assert sum(dec.cells_per_rank()) == 32**3

    def test_surface_beats_round_robin_off_rank(self):
        plans = {
            policy: halo_plan(decompose_ranks((32, 32, 32), 8, 8, policy).layout, 2)
            for policy in POLICIES
        }
        totals = {p.total_points for p in plans.values()}
        assert len(totals) == 1  # the total is geometry, not policy
        assert (
            plans["surface"].off_rank_points
            <= plans["block"].off_rank_points
            <= plans["round_robin"].off_rank_points
        )
        assert plans["surface"].off_rank_points < plans["round_robin"].off_rank_points

    def test_surface_map_matches_per_box_coordinates(self):
        # The per-axis tables against the rank worked out box by box
        # from each box's own coordinates, and the one-pass per-rank
        # counts against boxes_on_rank.
        for cells in ((64, 48, 32), (48, 80), (208, 16, 16), (64, 32, 32)):
            counts = [c // 16 for c in cells]
            for ranks in (1, 2, 3, 5, 6, 7, 8, 12):
                dec = decompose_ranks(cells, 16, ranks, "surface")
                layout = dec.layout
                grid = rank_grid(ranks, tuple(counts))
                if grid:
                    for i in layout:
                        r = 0
                        for d in reversed(range(len(cells))):
                            q = layout.box(i).lo[d] // 16 * grid[d] // counts[d]
                            r = r * grid[d] + min(q, grid[d] - 1)
                        assert layout.rank(i) == r
                on_rank = [layout.boxes_on_rank(r) for r in range(ranks)]
                assert dec.boxes_per_rank() == [len(b) for b in on_rank]
                assert dec.cells_per_rank() == [16 ** len(cells) * len(b) for b in on_rank]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            decompose_ranks((16, 16, 16), 8, 2, "hash")

    def test_near_cubic_grid(self):
        for n in (1, 2, 8, 12, 64, 1024):
            grid = near_cubic_grid(n, 3)
            prod = 1
            for g in grid:
                prod *= g
            assert prod == n
        assert near_cubic_grid(64, 3) == (4, 4, 4)


class TestHalo:
    def test_plan_matches_copier_totals(self):
        dec = decompose_ranks((32, 32, 32), 8, 4, "round_robin")
        copier = ExchangeCopier(dec.layout, 2)
        plan = halo_plan(dec.layout, 2)
        assert plan.total_points == copier.total_ghost_points()
        assert plan.off_rank_points == copier.off_rank_points()

    def test_plan_matches_executed_exchange(self):
        domain = ProblemDomain(Box.cube(16, 3))
        layout = decompose_domain(domain, 8)
        ld = LevelData(layout, ncomp=4, ghost=2)
        ld.exchange()
        plan = halo_plan(layout, 2)
        assert plan.total_points == ld.stats.points

    def test_cache_counters(self):
        clear_halo_cache()
        reset_perf()
        dec = decompose_ranks((32, 32, 32), 8, 4, "surface")
        halo_plan(dec.layout, 2)
        assert perf().get("halo_cache.misses") >= 1
        before = perf().get("halo_cache.hits")
        halo_plan(dec.layout, 2)
        assert perf().get("halo_cache.hits") > before

    def test_rank_halo_consistency(self):
        plan = halo_plan(decompose_ranks((32, 32, 32), 8, 8, "surface").layout, 2)
        assert sum(r.send_points + r.local_points for r in plan.ranks) == (
            plan.total_points
        )
        assert sum(r.send_points for r in plan.ranks) == plan.off_rank_points
        for r in plan.ranks:
            assert r.messages == len(r.neighbors)


class TestNodeGraph:
    def test_single_node_reduces_to_engine_bitwise(self):
        domain = (32, 32, 32)
        wl = build_workload(SERIES, 16, domain)
        with engine_mode("exact"):
            direct = estimate_workload(wl, SANDY_BRIDGE, 4)
            step = cluster_step(
                ClusterSpec(SANDY_BRIDGE, GEMINI, 1), SERIES, 16, domain, threads=4
            )
        assert step.cost.compute_s == direct.time_s
        assert step.cost.exchange_s == 0.0
        assert step.cost.ghost_bytes_per_node == 0.0
        assert step.cost.imbalance_s == 0.0

    def test_rank_workload_cells_box_count(self):
        cells = rank_workload_cells(8, 5, 3)
        assert cells == (8, 8, 40)
        # build_workload depends on the domain only through box count,
        # so a 5-box rank is bitwise this synthetic pencil.
        assert build_workload(SERIES, 8, cells) == build_workload(
            SERIES, 8, (8, 40, 8)
        )

    def test_uniform_decomposition_shares_engine_evals(self):
        graph = NodeGraph(
            ClusterSpec(SANDY_BRIDGE, GEMINI, 8), SERIES, 8, (32, 32, 32)
        )
        assert graph.distinct_box_counts() == (8,)

    def test_overlapped_hides_exchange(self):
        cl = ClusterSpec(MAGNY_COURS, GEMINI, 4)
        series = cluster_step(cl, SERIES, 16, (64, 64, 64))
        ot = cluster_step(cl, OT, 16, (64, 64, 64))
        # Same geometry, same wire traffic, but the overlapped schedule
        # drains the transfer behind interior compute.
        assert series.cost.ghost_bytes_per_node == ot.cost.ghost_bytes_per_node
        assert series.cost.exchange_s > 0
        assert ot.cost.exchange_s == 0.0

    def test_uneven_ranks_show_imbalance(self):
        # 64 boxes over 3 ranks: 22/21/21 under round robin.  One
        # thread per node so the extra box cannot hide in a ceil().
        step = cluster_step(
            ClusterSpec(SANDY_BRIDGE, GEMINI, 3),
            SERIES,
            8,
            (32, 32, 32),
            policy="round_robin",
            threads=1,
        )
        assert step.cost.imbalance_s > 0
        assert step.step_s == max(r.total_s for r in step.ranks)
        attributed = (
            step.cost.compute_s + step.cost.exchange_s + step.cost.imbalance_s
        )
        assert attributed == pytest.approx(step.step_s, rel=1e-12)


class TestScalingSweeps:
    def test_weak_rows_shape_and_monotone_fraction(self):
        rows = weak_scaling(
            (1, 2, 4), (SERIES,), machine=SANDY_BRIDGE, boxes_per_node=4, box_size=8
        )
        assert [r["nodes"] for r in rows] == [1, 2, 4]
        fracs = [r["variants"][SERIES.short_name]["exchange_fraction"] for r in rows]
        assert fracs[0] == 0.0
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        for row in rows:
            assert row["best"] in row["variants"]

    def test_interconnect_changes_the_tax(self):
        common = dict(machine=SANDY_BRIDGE, boxes_per_node=4, box_size=8)
        slow = weak_scaling((8,), (SERIES,), interconnect=GEMINI, **common)
        fast = weak_scaling((8,), (SERIES,), interconnect=HDR, **common)
        assert (
            slow[0]["variants"][SERIES.short_name]["exchange_s"]
            > fast[0]["variants"][SERIES.short_name]["exchange_s"]
        )


class TestServedCluster:
    POINT = ClusterPoint(
        SERIES, SANDY_BRIDGE, GEMINI, nodes=4, box_size=8, domain_cells=(32, 32, 32)
    )

    def test_served_equals_direct(self):
        direct = self.POINT.evaluate()
        with JobService(workers=2, queue_limit=16) as svc:
            outcome = svc.submit(JobSpec("cluster", self.POINT)).result(timeout=30.0)
        assert outcome.status == "ok", outcome
        served = outcome.value
        assert served.step_s == direct.step_s
        assert served.cost == direct.cost
        assert served.ranks == direct.ranks

    def test_served_equals_direct_through_shards(self):
        direct = self.POINT.evaluate()
        with JobService(workers=2, queue_limit=16, shards=1) as svc:
            outcome = svc.submit(JobSpec("cluster", self.POINT)).result(timeout=60.0)
        assert outcome.status == "ok", outcome
        assert outcome.value.step_s == direct.step_s
        assert outcome.value.cost == direct.cost

    def test_simulate_engine_served(self):
        point = ClusterPoint(
            SERIES,
            SANDY_BRIDGE,
            GEMINI,
            nodes=2,
            box_size=8,
            domain_cells=(16, 16, 16),
            engine="simulate",
        )
        direct = point.evaluate()
        with JobService(workers=2, queue_limit=16) as svc:
            outcome = svc.submit(JobSpec("cluster", point)).result(timeout=30.0)
        assert outcome.status == "ok", outcome
        assert outcome.value.engine == "simulate"
        assert outcome.value.step_s == direct.step_s

    def test_bad_payload_fails_cleanly(self):
        with JobService(workers=2, queue_limit=16) as svc:
            outcome = svc.submit(JobSpec("cluster", "not-a-point")).result(
                timeout=30.0
            )
        assert outcome.status == "failed"


class TestVerifyFamily:
    def test_random_cluster_cases_pass(self):
        from repro.verify import random_config, run_check

        rng = random.Random(99)
        for _ in range(3):
            cfg = random_config(rng, family="cluster")
            assert run_check(cfg) == []


class TestChaosWithClusterJobs:
    def test_soak_smoke(self):
        from repro.serve.chaos import run_soak

        report = run_soak(seed=11, duration_cases=40)
        assert report.ok, report.violations
        assert report.stats["counts"]["submitted"] >= 40
