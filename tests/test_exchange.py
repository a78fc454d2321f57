"""Integration tests for ExchangeCopier and LevelData ghost exchange."""

import itertools

import numpy as np
import pytest

from repro.box import (
    Box,
    CopyItem,
    DisjointBoxLayout,
    ExchangeCopier,
    LevelData,
    ProblemDomain,
    decompose_domain,
)
from repro.box.copier import _box_copies, pair_points
from repro.cluster import POLICIES, decompose_ranks, halo_plan


def enumerate_items(layout, ghost):
    """The plan by per-box enumeration: the oracle for the class plan."""
    return [
        CopyItem(src, dst, src_region, dst_region)
        for dst in layout
        for src, src_region, dst_region in _box_copies(layout, ghost, dst)
    ]


def folded_tally(items):
    tally = {}
    for item in items:
        pair = (item.src, item.dst)
        tally[pair] = tally.get(pair, 0) + item.num_points
    return tally


def assert_plan_matches_enumeration(layout, ghost):
    items = ExchangeCopier(layout, ghost).items
    assert items == enumerate_items(layout, ghost)
    # Same pairs, same counts, same insertion order.
    assert list(pair_points(layout, ghost).items()) == list(
        folded_tally(items).items()
    )


def _level(n=8, box=4, dim=3, ncomp=1, ghost=2, periodic=True):
    domain = ProblemDomain(Box.cube(n, dim), periodic=(periodic,) * dim)
    lay = decompose_domain(domain, box)
    return LevelData(lay, ncomp=ncomp, ghost=ghost)


def _global_index_fill(ld):
    """Fill each valid cell with a unique encoding of its global index."""
    weights = [1, 1000, 1000_000][: ld.layout.domain.dim]

    def fn(*grids_and_comp):
        *grids, comp = grids_and_comp
        acc = 0
        for g, w in zip(grids, weights):
            acc = acc + g * w
        return acc + comp * 10**9

    ld.fill_from_function(fn)
    return weights


class TestCopierPlan:
    def test_zero_ghost_empty_plan(self):
        ld = _level(ghost=0)
        copier = ExchangeCopier(ld.layout, 0)
        assert copier.items == []
        assert copier.total_ghost_points() == 0

    def test_negative_ghost_rejected(self):
        ld = _level()
        with pytest.raises(ValueError):
            ExchangeCopier(ld.layout, -1)

    def test_plan_covers_all_ghosts_exactly_once(self):
        ld = _level(n=8, box=4, dim=2, ghost=2)
        copier = ExchangeCopier(ld.layout, 2)
        per_box_ghosts = 8 * 8 - 4 * 4
        assert copier.total_ghost_points() == per_box_ghosts * len(ld.layout)
        # No destination point covered twice.
        for idx in ld.layout:
            seen = np.zeros((8, 8), dtype=int)
            grown = ld.layout.box(idx).grow(2)
            for item in copier.items:
                if item.dst != idx:
                    continue
                sl = item.dst_region.slices_within(grown)
                seen[sl] += 1
            assert seen.max() == 1

    def test_off_rank_accounting(self):
        domain = ProblemDomain(Box.cube(8, 2))
        lay_1rank = decompose_domain(domain, 4, num_ranks=1)
        lay_4rank = decompose_domain(domain, 4, num_ranks=4)
        c1 = ExchangeCopier(lay_1rank, 1)
        c4 = ExchangeCopier(lay_4rank, 1)
        assert c1.off_rank_points() == 0
        assert c4.off_rank_points() == c4.total_ghost_points()

    def test_bytes_per_exchange(self):
        ld = _level(dim=2)
        copier = ld.copier()
        assert copier.bytes_per_exchange(ncomp=3) == copier.total_ghost_points() * 24


#: Boxes per axis: 1 (self-image), 2 and 3 (wrap-around neighbours
#: coincide) and enough for a class with several members at every ghost
#: width tried (2k + 2 boxes, k = ceil(ghost / box size)).
_GRIDS = [
    (1,), (2,), (3,), (8,),
    (1, 4), (2, 3), (8, 3),
    (1, 2, 3), (6, 1, 4), (4, 2, 3),
]


class TestClassPlanEqualsEnumeration:
    """Plans built once per position class equal per-box enumeration."""

    @pytest.mark.parametrize("grid", _GRIDS, ids=str)
    def test_uniform_every_periodicity(self, grid):
        # Box size 2: ghost below, equal to and above it; two boxes and
        # more deep on the grids cheap enough for it.
        dim = len(grid)
        lo = (-3, 0, 5)[:dim]
        extent = tuple(2 * g for g in grid)
        ghosts = (1, 2, 3) if dim == 3 else (1, 2, 3, 4, 5)
        for periodic in itertools.product((False, True), repeat=dim):
            domain = ProblemDomain(Box.from_extents(lo, extent), periodic=periodic)
            layout = decompose_domain(domain, 2)
            for ghost in ghosts:
                assert_plan_matches_enumeration(layout, ghost)

    def test_anisotropic_boxes(self):
        domain = ProblemDomain(Box.from_extents((0, 0, 0), (8, 15, 4)))
        layout = decompose_domain(domain, (2, 3, 4))
        for ghost in (1, 2, 3, 5):
            assert_plan_matches_enumeration(layout, ghost)

    def test_shuffled_uniform_layout(self):
        # A tiling whose layout order is not the block order.
        domain = ProblemDomain(Box.from_extents((0, 0), (20, 12)))
        boxes = decompose_domain(domain, 4).boxes
        layout = DisjointBoxLayout(domain, boxes[::-2] + boxes[-2::-2])
        assert layout.uniform_tiling() is not None
        for ghost in (1, 4, 6):
            assert_plan_matches_enumeration(layout, ghost)

    def test_irregular_layout(self):
        domain = ProblemDomain(Box.from_extents((0, 0), (12, 8)))
        layout = DisjointBoxLayout(
            domain,
            [
                Box.from_extents((0, 0), (2, 8)),
                Box.from_extents((2, 0), (10, 4)),
                Box.from_extents((2, 4), (5, 4)),
                Box.from_extents((7, 4), (5, 4)),
            ],
        )
        assert layout.uniform_tiling() is None
        for ghost in (1, 2, 5):
            assert_plan_matches_enumeration(layout, ghost)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_halo_plan_totals_match_copier(self, policy):
        for cells, ranks in (((64, 48, 32), 6), ((48, 48), 4), ((96, 32, 16), 5)):
            layout = decompose_ranks(cells, 16, ranks, policy).layout
            for ghost in (1, 2, 17):
                plan = halo_plan(layout, ghost)
                copier = ExchangeCopier(layout, ghost)
                assert plan.total_points == copier.total_ghost_points()
                assert plan.off_rank_points == copier.off_rank_points()


class TestExchangeCorrectness:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic_ghosts_match_wrapped_cells(self, dim):
        ld = _level(n=8, box=4, dim=dim, ncomp=2, ghost=2)
        weights = _global_index_fill(ld)
        ld.exchange()
        for idx in ld.layout:
            box = ld.layout.box(idx)
            grown = box.grow(2)
            fab = ld[idx]
            # Check the low-corner ghost diagonal wraps correctly.
            dom = ld.layout.domain
            for point_off in range(-2, 0):
                probe = box.lo + point_off
                image = dom.image_of(probe)
                got = fab.window(Box(probe, probe), comp=0).ravel()[0]
                expect = sum(image[d] * weights[d] for d in range(dim))
                assert got == expect

    def test_single_box_self_exchange(self):
        # One box on a periodic domain exchanges with itself through
        # every boundary.
        ld = _level(n=6, box=6, dim=2, ghost=2)
        weights = _global_index_fill(ld)
        ld.exchange()
        fab = ld[0]
        got = fab.window(Box.from_extents((-2, -2), (1, 1)), comp=0)
        assert got[0, 0] == 4 * weights[0] + 4 * weights[1]

    def test_exchange_idempotent(self):
        ld = _level(dim=2)
        _global_index_fill(ld)
        ld.exchange()
        snapshot = [fab.data.copy() for fab in ld.fabs]
        ld.exchange()
        for before, fab in zip(snapshot, ld.fabs):
            assert np.array_equal(before, fab.data)

    def test_stats_accumulate(self):
        ld = _level(dim=2)
        ld.exchange()
        ld.exchange()
        assert ld.stats.exchanges == 2
        assert ld.stats.points == 2 * ld.copier().total_ghost_points()
        assert ld.stats.bytes == ld.stats.points * ld.ncomp * 8

    def test_zero_ghost_exchange_noop(self):
        ld = _level(ghost=0)
        ld.exchange()
        assert ld.stats.exchanges == 0


class TestLevelData:
    def test_to_global_array_roundtrip(self):
        ld = _level(n=8, box=4, dim=2, ncomp=2)
        _global_index_fill(ld)
        g = ld.to_global_array()
        assert g.shape == (8, 8, 2)
        assert g[3, 5, 0] == 3 + 5000

    def test_norm_over_valid_cells_only(self):
        ld = _level(n=4, box=4, dim=2, ncomp=1, ghost=2)
        ld.set_val(1.0)  # sets ghosts too
        assert ld.norm(2) == pytest.approx(4.0)  # sqrt(16 cells)
        assert ld.norm(0) == 1.0

    def test_ghost_requirement(self):
        ld = _level(dim=2, ghost=1)
        assert ld[0].box.size() == (6, 6)
