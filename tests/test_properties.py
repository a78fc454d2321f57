"""Property-based tests (hypothesis) of the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ghost_ratio,
    miss_fraction,
    region_flops,
    variant_traffic,
)
from repro.box import Box, IntVect
from repro.exemplar import random_initial_data, reference_kernel
from repro.schedules import TileGrid, Variant, make_executor

# ----------------------------------------------------------- strategies
dims = st.integers(min_value=1, max_value=4)


def boxes(dim, max_size=12):
    coords = st.integers(min_value=-8, max_value=8)
    sizes = st.integers(min_value=1, max_value=max_size)
    return st.tuples(
        st.tuples(*[coords] * dim), st.tuples(*[sizes] * dim)
    ).map(lambda t: Box.from_extents(t[0], t[1]))


class TestBoxCalculus:
    @given(dims.flatmap(lambda d: boxes(d)), st.integers(1, 3))
    def test_grow_shrink_inverse(self, box, g):
        assert box.grow(g).grow(-g) == box

    @given(dims.flatmap(lambda d: st.tuples(boxes(d), boxes(d))))
    def test_intersection_commutative_and_contained(self, pair):
        a, b = pair
        i1, i2 = a & b, b & a
        assert i1.is_empty == i2.is_empty
        if not i1.is_empty:
            assert i1.lo == i2.lo and i1.hi == i2.hi
            assert a.contains(i1) and b.contains(i1)

    @given(dims.flatmap(lambda d: st.tuples(boxes(d), boxes(d))))
    def test_minbox_contains_both(self, pair):
        a, b = pair
        m = a.minbox(b)
        assert a in m and b in m

    @settings(max_examples=40, deadline=None)
    @given(dims.flatmap(lambda d: boxes(d, max_size=8)), st.integers(1, 5))
    def test_tiles_partition_box(self, box, tile):
        # Exact partition by occupancy: every cell of the box is
        # covered by exactly one tile.
        covered = np.zeros(box.size(), dtype=np.int64)
        for t in box.tile(tile):
            assert box.contains(t)
            covered[t.slices_within(box)] += 1
        assert (covered == 1).all()

    @given(dims.flatmap(lambda d: boxes(d)), st.integers(0, 2))
    def test_face_box_roundtrip(self, box, direction):
        d = min(direction, box.dim - 1)
        fb = box.face_box(d)
        assert fb.enclosed_cells() == box
        assert fb.num_points() == box.num_points() // box.size(d) * (box.size(d) + 1)


class TestTileGridProperties:
    @given(
        st.integers(4, 20),
        st.integers(1, 7),
        st.integers(2, 3),
    )
    def test_wavefront_sizes_sum_to_tiles(self, n, tile, dim):
        grid = TileGrid(Box.cube(n, dim), tile)
        assert sum(grid.wavefront_sizes()) == len(grid)
        assert grid.num_wavefronts == len(grid.wavefront_sizes())

    @given(st.integers(4, 16), st.integers(1, 5))
    def test_upstream_always_previous_wavefront(self, n, tile):
        grid = TileGrid(Box.cube(n, 2), tile)
        for i in range(len(grid)):
            for up in grid.upstream_neighbors(i):
                assert grid.wavefront_of(up) + 1 == grid.wavefront_of(i)


class TestKernelProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(5, 9),
        st.integers(0, 10_000),
        st.sampled_from(
            [
                Variant("series", "P>=Box", "CLI"),
                Variant("shift_fuse", "P<Box", "CLO"),
                Variant("blocked_wavefront", "P<Box", "CLO", tile_size=4),
                Variant("overlapped", "P>=Box", "CLO", tile_size=4,
                        intra_tile="shift_fuse"),
            ]
        ),
    )
    def test_variants_bitwise_on_random_boxes(self, n, seed, variant):
        if not variant.applicable_to_box(n):
            n = variant.tile_size + 1 + (n % 3)
        phi_g = random_initial_data((n + 4,) * 3, seed=seed)
        ref = reference_kernel(phi_g)
        out = make_executor(variant, dim=3, ncomp=5).run_fresh(phi_g)
        assert np.array_equal(out, ref)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(5, 10), st.integers(0, 10_000))
    def test_kernel_linearity_in_scaling(self, n, seed):
        # The kernel is quadratic in phi (flux = phi * velocity), so
        # scaling the input by a scales the *increment* by a^2.
        phi_g = random_initial_data((n + 4,) * 3, seed=seed)
        out1 = reference_kernel(phi_g)
        inc1 = out1 - phi_g[2:-2, 2:-2, 2:-2, :]
        out2 = reference_kernel(2.0 * phi_g)
        inc2 = out2 - 2.0 * phi_g[2:-2, 2:-2, 2:-2, :]
        assert np.allclose(inc2, 4.0 * inc1, rtol=1e-12, atol=1e-12)


class TestModelProperties:
    @given(
        st.floats(1.0, 1e12),
        st.floats(0.0, 1e12),
    )
    def test_miss_fraction_bounds(self, ws, cache):
        f = miss_fraction(ws, cache)
        assert 0.0 <= f <= 1.0

    @given(st.integers(8, 256), st.integers(2, 6), st.integers(0, 8))
    def test_ghost_ratio_above_one(self, n, dim, ghost):
        r = ghost_ratio(n, dim, ghost)
        assert r >= 1.0
        if ghost > 0:
            assert r > 1.0

    @given(
        st.sampled_from(
            [
                Variant("series"),
                Variant("shift_fuse"),
                Variant("blocked_wavefront", "P<Box", "CLO", tile_size=8),
                Variant("overlapped", "P<Box", "CLO", tile_size=8,
                        intra_tile="basic"),
            ]
        ),
        st.integers(16, 128),
        st.floats(1e3, 1e9),
    )
    def test_traffic_at_least_compulsory(self, variant, n, cache):
        tm = variant_traffic(variant, n)
        assert tm.dram_bytes(cache) >= tm.compulsory - 1e-9

    @given(st.integers(2, 16), st.integers(2, 16), st.integers(2, 16))
    def test_region_flops_additive_in_cells(self, a, b, c):
        # Accumulation flops are exactly additive when splitting a
        # region; face flops grow by the shared plane.
        whole = region_flops((a + b, c, c), 5)
        left = region_flops((a, c, c), 5)
        right = region_flops((b, c, c), 5)
        assert left.accumulate + right.accumulate == whole.accumulate
        extra_faces = c * c * 5  # the duplicated plane, all comps
        assert left.flux1 + right.flux1 == whole.flux1 + 5 * extra_faces
