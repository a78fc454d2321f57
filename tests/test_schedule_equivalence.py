"""The central correctness property of the reproduction (§IV):

every inter-loop schedule variant computes **bitwise** the same phi1 as
the reference series-of-loops kernel — shifting, fusing, tiling,
wavefronting, and redundant recomputation change only the order work is
done and the temporaries used, never the IEEE result (each face value is
always computed by the same expression from phi0, and every cell
accumulates its x, y, z contributions in the same order).
"""

import numpy as np
import pytest

from repro.exemplar import random_initial_data, reference_kernel
from repro.schedules import (
    Variant,
    enumerate_design_space,
    make_executor,
    practical_variants,
    run_schedule_on_level,
)
from repro.exemplar import ExemplarProblem
from repro.schedules.level import prepare_phi1


N3 = 12  # admits tile sizes 4 and 8 (strictly smaller than the box)


@pytest.fixture(scope="module")
def phi_g_3d():
    return random_initial_data((N3 + 4,) * 3, seed=7)


@pytest.fixture(scope="module")
def ref_3d(phi_g_3d):
    return reference_kernel(phi_g_3d)


class TestPracticalVariantsBitwise:
    @pytest.mark.parametrize(
        "variant",
        [v for v in practical_variants() if v.applicable_to_box(N3)],
        ids=lambda v: v.short_name,
    )
    def test_bitwise_equal_to_reference(self, variant, phi_g_3d, ref_3d):
        ex = make_executor(variant, dim=3, ncomp=5)
        out = ex.run_fresh(phi_g_3d)
        assert np.array_equal(out, ref_3d), variant.label


class TestFullDesignSpaceBitwise:
    """Including the points the paper pruned (e.g. overlapped CLI)."""

    @pytest.mark.parametrize(
        "variant",
        [v for v in enumerate_design_space() if v.applicable_to_box(N3)],
        ids=lambda v: v.short_name,
    )
    def test_bitwise_equal_to_reference(self, variant, phi_g_3d, ref_3d):
        ex = make_executor(variant, dim=3, ncomp=5)
        out = ex.run_fresh(phi_g_3d)
        assert np.array_equal(out, ref_3d), variant.label


class TestTwoDimensional:
    @pytest.mark.parametrize(
        "variant",
        [v for v in practical_variants() if v.applicable_to_box(10)],
        ids=lambda v: v.short_name,
    )
    def test_2d_bitwise(self, variant):
        phi_g = random_initial_data((14, 14), ncomp=4, seed=11)
        ref = reference_kernel(phi_g)
        ex = make_executor(variant, dim=2, ncomp=4)
        out = ex.run_fresh(phi_g)
        assert np.array_equal(out, ref)


class TestInputLayouts:
    """Executors issue one ufunc call over all components, so the loop
    order follows the input's strides; the bits must not."""

    VARIANTS = [
        Variant("series", "P>=Box", "CLO"),
        Variant("series", "P>=Box", "CLI"),
        Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="basic"),
        Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse"),
    ]

    @staticmethod
    def c_ordered(phi_g):
        return np.ascontiguousarray(phi_g)

    @staticmethod
    def window(phi_g):
        n = phi_g.shape[0]
        big = np.full((2 * n + 1, n + 3, n + 2, 8), np.nan)
        win = big[1::2, 2:n + 2, 1:n + 1, 2:7]
        win[...] = phi_g
        return win

    @pytest.mark.parametrize(
        "variant", VARIANTS, ids=["series-CLO", "series-CLI", "basic-OT8", "shift_fuse-OT8"]
    )
    @pytest.mark.parametrize("layout", ["c_ordered", "window"])
    def test_bitwise_on_layout(self, variant, layout, phi_g_3d, ref_3d):
        phi_g = getattr(self, layout)(phi_g_3d)
        assert np.array_equal(phi_g, phi_g_3d)
        out = make_executor(variant, dim=3, ncomp=5).run_fresh(phi_g)
        assert np.array_equal(out, ref_3d)


class TestRaggedTiles:
    """Tile sizes that do not divide the box exercise edge tiles."""

    @pytest.mark.parametrize("n", [9, 13])
    @pytest.mark.parametrize("tile", [4, 8])
    @pytest.mark.parametrize("category", ["blocked_wavefront", "overlapped"])
    def test_ragged(self, n, tile, category):
        if tile >= n:
            pytest.skip("tile must be strictly smaller")
        phi_g = random_initial_data((n + 4,) * 3, seed=n * tile)
        ref = reference_kernel(phi_g)
        kwargs = {"intra_tile": "shift_fuse"} if category == "overlapped" else {}
        v = Variant(category, "P<Box", "CLO", tile_size=tile, **kwargs)
        out = make_executor(v, dim=3, ncomp=5).run_fresh(phi_g)
        assert np.array_equal(out, ref)


class TestLevelDriver:
    def test_level_equivalence_across_variants(self):
        p = ExemplarProblem(domain_cells=(8, 8, 8), box_size=8)
        phi0 = p.make_phi0()
        base = run_schedule_on_level(
            Variant("series", "P>=Box", "CLO"), phi0
        ).to_global_array()
        for v in (
            Variant("shift_fuse", "P<Box", "CLI"),
            Variant("blocked_wavefront", "P<Box", "CLO", tile_size=4),
            Variant("overlapped", "P>=Box", "CLO", tile_size=4, intra_tile="basic"),
        ):
            out = run_schedule_on_level(v, phi0).to_global_array()
            assert np.array_equal(out, base), v.label

    def test_prepare_phi1_copies_initial_data(self):
        p = ExemplarProblem(domain_cells=(4, 4, 4), box_size=4)
        phi0 = p.make_phi0()
        phi1 = prepare_phi1(phi0)
        assert np.array_equal(
            phi1.to_global_array(), phi0.to_global_array()
        )

    def test_ghost_check(self):
        p = ExemplarProblem(domain_cells=(4, 4, 4), box_size=4, ghost=1)
        with pytest.raises(ValueError):
            run_schedule_on_level(Variant("series"), p.make_phi0(exchange=False))
