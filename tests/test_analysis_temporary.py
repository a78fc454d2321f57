"""Tests of Table I formulas and their consistency with the executors."""

import tracemalloc

import pytest

from repro.analysis import table1_for_variant, table1_rows, table1_temporaries
from repro.exemplar import random_initial_data
from repro.schedules import Variant, make_executor
from repro.util import track_allocations


class TestFormulas:
    def test_series(self):
        t = table1_temporaries("series", 16, c=5)
        assert t.flux == 5 * 17**3
        assert t.velocity == 17**3
        assert t.total == 6 * 17**3
        assert t.bytes() == t.total * 8

    def test_shift_fuse(self):
        t = table1_temporaries("shift_fuse", 128)
        assert t.flux == 2 + 256 + 2 * 128**2
        assert t.velocity == 3 * 129**3

    def test_wavefront_requires_tile(self):
        with pytest.raises(ValueError):
            table1_temporaries("blocked_wavefront", 128)

    def test_overlapped_threads_factor(self):
        t1 = table1_temporaries("overlapped", 128, tile=8, threads=1)
        t24 = table1_temporaries("overlapped", 128, tile=8, threads=24)
        assert t24.flux == 24 * t1.flux
        assert t24.velocity == 24 * t1.velocity

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            table1_temporaries("nope", 16)

    def test_rows_order(self):
        rows = table1_rows(64)
        assert [r["category"] for r in rows] == [
            "series",
            "shift_fuse",
            "blocked_wavefront",
            "overlapped",
        ]

    def test_storage_hierarchy_as_paper(self):
        # Overlapped << fused < series for the paper's configuration.
        n, t = 128, 16
        series = table1_temporaries("series", n).total
        fused = table1_temporaries("shift_fuse", n).total
        ot = table1_temporaries("overlapped", n, tile=t).total
        assert ot < fused < series


class TestExecutorConsistency:
    """Executors' self-declared temporaries track Table I."""

    @pytest.mark.parametrize("cl", ["CLO", "CLI"])
    def test_series_executor(self, cl):
        v = Variant("series", "P>=Box", cl)
        ex = make_executor(v)
        decl = ex.logical_temporaries(16)
        t = table1_for_variant(v, 16)
        assert decl["flux"] == t.flux
        # CLO needs no velocity temporary (§IV-A).
        if cl == "CLO":
            assert decl["velocity"] == 0
        else:
            assert decl["velocity"] == t.velocity

    def test_shift_fuse_executor(self):
        v = Variant("shift_fuse", "P>=Box", "CLO")
        decl = make_executor(v).logical_temporaries(32)
        t = table1_for_variant(v, 32)
        assert decl["flux"] == t.flux
        assert decl["velocity"] == t.velocity

    def test_overlapped_executor_tile_scale(self):
        v = Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse")
        decl = make_executor(v).logical_temporaries(64)
        # Per-thread scratch is tile-sized, independent of N.
        assert decl == make_executor(v).logical_temporaries(128)
        assert decl["velocity"] == 3 * 9**3

    def test_blocked_wavefront_executor(self):
        v = Variant("blocked_wavefront", "P<Box", "CLI", tile_size=8)
        decl = make_executor(v).logical_temporaries(16)
        t = table1_for_variant(v, 16)
        assert (decl["flux"], decl["velocity"]) == (t.flux, t.velocity)
        assert (t.flux, t.velocity) == (7680, 14739)

    def test_overlapped_executor_cli(self):
        v = Variant("overlapped", "P<Box", "CLI", tile_size=8, intra_tile="shift_fuse")
        decl = make_executor(v).logical_temporaries(16)
        t = table1_for_variant(v, 16)
        assert decl["flux"] == t.flux == 730
        # Table I prints P·C·3(T+1)³, but face velocities carry no
        # component axis (as in the shift_fuse row), so the tile holds 3(T+1)³.
        assert (decl["velocity"], t.velocity) == (3 * 9**3, 5 * 3 * 9**3)

    @pytest.mark.parametrize("n, t", [(16, 8), (32, 8), (64, 16)])
    def test_overlapped_redundant_face_evals(self, n, t):
        v = Variant("overlapped", "P<Box", "CLO", tile_size=t, intra_tile="basic")
        # Table I's recomputation: each interior tile boundary, per
        # direction, is an N² face plane evaluated by both tiles.
        assert make_executor(v).redundant_face_evals(n) == 3 * (n // t - 1) * n * n


class TestRealizedFootprint:
    """The executed scratch stays where Table I puts it."""

    SERIES_CLO = Variant("series", "P>=Box", "CLO")
    SERIES_CLI = Variant("series", "P>=Box", "CLI")
    BASIC_OT8 = Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="basic")

    @staticmethod
    def box(v, n, dim=3):
        g = random_initial_data((n + 4,) * dim, seed=3)
        ex = make_executor(v, dim=dim, ncomp=g.shape[-1])
        return ex, g, g[(slice(2, -2),) * dim].copy(order="F")

    def tagged_peaks(self, v, n, dim):
        ex, g, phi1 = self.box(v, n, dim)
        with track_allocations() as t:
            ex.run(g, phi1)
        return t.peak_elements_by_tag()

    def traced_peak(self, v, n):
        ex, g, phi1 = self.box(v, n)
        ex.run(g, phi1)  # warm: imports and first-call caches
        tracemalloc.start()
        try:
            ex.run(g, phi1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "name, dim, expect",
        [
            ("SERIES_CLO", 3, {"flux": 21760}),
            ("SERIES_CLI", 3, {"flux": 21760, "velocity": 4352}),
            ("BASIC_OT8", 3, {"flux": 2880}),
            ("SERIES_CLO", 2, {"flux": 1360}),
            ("SERIES_CLI", 2, {"flux": 1360, "velocity": 272}),
            ("BASIC_OT8", 2, {"flux": 360}),
        ],
    )
    def test_tagged_peaks_at_n16(self, name, dim, expect):
        assert self.tagged_peaks(getattr(self, name), 16, dim) == expect

    @pytest.mark.parametrize("n", [16, 32])
    def test_series_clo_bounded_by_four_flux_arrays(self, n):
        peak = self.traced_peak(self.SERIES_CLO, n)
        assert peak <= 4 * 5 * (n + 1) ** 3 * 8

    def test_overlapped_working_set_is_tile_local(self):
        series = self.traced_peak(self.SERIES_CLO, 32)
        ot8 = self.traced_peak(self.BASIC_OT8, 32)
        assert ot8 < series / 10
