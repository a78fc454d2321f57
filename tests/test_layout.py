"""Unit tests for DisjointBoxLayout and domain decomposition."""

import pytest

from repro.box import (
    Box,
    DisjointBoxLayout,
    ExchangeCopier,
    ProblemDomain,
    decompose_domain,
)

from .test_exchange import enumerate_items


def _domain(n=8, dim=3):
    return ProblemDomain(Box.cube(n, dim))


class TestDecompose:
    def test_counts(self):
        lay = decompose_domain(_domain(8), 4)
        assert len(lay) == 8
        assert lay.total_cells() == 512

    def test_paper_box_counts(self):
        # The paper's 50,331,648-cell domain splits into 12,288 boxes of
        # 16^3 and 24 boxes of 128^3 (§III-C). Verified scaled by 1/8
        # per direction to keep the test fast: 64x48x32 with boxes of 2
        # and 16 keeps the same ratios.
        d = ProblemDomain(Box.from_extents((0, 0, 0), (64, 48, 32)))
        assert len(decompose_domain(d, 2)) == 12288
        assert len(decompose_domain(d, 16)) == 24

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            decompose_domain(_domain(10), 4)

    def test_anisotropic_box(self):
        d = ProblemDomain(Box.from_extents((0, 0), (8, 6)))
        lay = decompose_domain(d, (4, 3))
        assert len(lay) == 4

    def test_rank_round_robin(self):
        lay = decompose_domain(_domain(8), 4, num_ranks=3)
        assert lay.num_ranks() == 3
        counts = [len(lay.boxes_on_rank(r)) for r in range(3)]
        assert sum(counts) == 8
        assert max(counts) - min(counts) <= 1


class TestValidation:
    def test_overlap_rejected(self):
        # Equal sizes offset by less than a box: unaligned, so no grid
        # index and the sweep decides.
        d = _domain(8, 2)
        with pytest.raises(ValueError, match="boxes overlap"):
            DisjointBoxLayout(d, [Box.cube(4, 2), Box.cube(4, 2, lo=2)])

    @pytest.mark.parametrize(
        "boxes",
        [
            # Same block coordinate twice: the grid index must not
            # certify them (the second would overwrite the first's slot).
            [Box.cube(4, 2), Box.cube(4, 2)],
            [Box.cube(4, 2), Box.cube(4, 2, lo=4), Box.cube(4, 2)],
            [Box.cube(4, 2), Box.cube(2, 2, lo=3)],
        ],
        ids=["identical", "identical-apart", "mixed-size"],
    )
    def test_overlap_never_certified(self, boxes):
        with pytest.raises(ValueError, match="boxes overlap"):
            DisjointBoxLayout(_domain(8, 2), boxes)

    def test_partial_uniform_layout_builds(self):
        # Aligned equal boxes that do not cover the domain: indexed
        # (hence proven disjoint) but not a tiling, so every box plans
        # its own copies.
        d = ProblemDomain(Box.from_extents((0, 0), (12, 8)))
        boxes = decompose_domain(d, 4).boxes
        lay = DisjointBoxLayout(d, boxes[:4] + boxes[5:])
        assert lay._grid_index is not None
        assert lay.uniform_tiling() is None
        assert decompose_domain(d, 4).uniform_tiling() is not None
        for ghost in (1, 2, 5):
            assert ExchangeCopier(lay, ghost).items == enumerate_items(lay, ghost)

    def test_outside_domain_rejected(self):
        d = _domain(4, 2)
        with pytest.raises(ValueError):
            DisjointBoxLayout(d, [Box.cube(4, 2, lo=2)])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            DisjointBoxLayout(_domain(), [])

    def test_rank_length_mismatch(self):
        d = _domain(4, 2)
        with pytest.raises(ValueError):
            DisjointBoxLayout(d, [Box.cube(4, 2)], ranks=[0, 1])


class TestNeighbors:
    def test_periodic_all_neighbors(self):
        # 2x2x2 boxes on a periodic domain: box 0's ghost ring wraps to
        # touch every *other* box (not itself: ghost 2 < box size 4).
        lay = decompose_domain(_domain(8), 4)
        nb = lay.neighbors(0, 2)
        assert set(nb) == set(range(1, 8))

    def test_self_neighbor_through_boundary(self):
        # A single box on a periodic domain is its own neighbour.
        lay = decompose_domain(_domain(8), 8)
        assert lay.neighbors(0, 2) == [0]

    def test_interior_neighbors_nonperiodic(self):
        d = ProblemDomain(Box.cube(8, 2), periodic=(False, False))
        lay = decompose_domain(d, 4)
        # Corner box of a 2x2 grid touches the other 3.
        assert set(lay.neighbors(0, 1)) == {1, 2, 3}

    def test_zero_ghost_no_neighbors(self):
        d = ProblemDomain(Box.cube(8, 2), periodic=(False, False))
        lay = decompose_domain(d, 4)
        assert lay.neighbors(0, 0) == []


class TestSpatialIndex:
    def test_boxes_intersecting_regular(self):
        lay = decompose_domain(_domain(8), 4)
        hits = lay.boxes_intersecting(Box.cube(2, 3, lo=3))
        # Region (3..4)^3 straddles all 8 boxes.
        assert sorted(hits) == list(range(8))

    def test_boxes_intersecting_single(self):
        lay = decompose_domain(_domain(8), 4)
        hits = lay.boxes_intersecting(Box.cube(2, 3))
        assert len(hits) == 1
        assert lay.box(hits[0]).contains(Box.cube(2, 3))

    def test_irregular_layout_fallback(self):
        d = ProblemDomain(Box.from_extents((0, 0), (8, 4)), periodic=(False, False))
        lay = DisjointBoxLayout(
            d, [Box.from_extents((0, 0), (2, 4)), Box.from_extents((2, 0), (6, 4))]
        )
        assert lay._grid_index is None
        hits = lay.boxes_intersecting(Box.from_extents((1, 0), (2, 2)))
        assert sorted(hits) == [0, 1]

    def test_empty_region(self):
        lay = decompose_domain(_domain(8), 4)
        assert lay.boxes_intersecting(Box.empty(3)) == []
