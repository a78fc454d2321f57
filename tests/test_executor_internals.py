"""Unit tests of executor building blocks (velocities, range fluxes,
fused sweep, shared-temporary series groups)."""

import tracemalloc

import numpy as np
import pytest

from repro.box import Box
from repro.exemplar import (
    eval_flux1,
    random_initial_data,
    reference_kernel,
    velocity_component,
)
from repro.parallel.partition import _series_shared_groups
from repro.schedules import TileGrid, Variant, compute_velocities, fused_sweep
from repro.schedules.wavefront import range_face_flux
from repro.util import track_allocations


@pytest.fixture(scope="module")
def phi_g():
    return random_initial_data((10, 10, 10), seed=21)  # 6^3 box, 2 ghosts


class TestComputeVelocities:
    def test_shapes(self, phi_g):
        vels = compute_velocities(phi_g, 3)
        assert vels[0].shape == (7, 6, 6)
        assert vels[1].shape == (6, 7, 6)
        assert vels[2].shape == (6, 6, 7)

    def test_values_match_direct_interp(self, phi_g):
        vels = compute_velocities(phi_g, 3)
        for d in range(3):
            sl = tuple(
                slice(None) if ax == d else slice(2, -2) for ax in range(3)
            ) + (velocity_component(d),)
            expect = eval_flux1(phi_g[sl], axis=d)
            assert np.array_equal(vels[d], expect)

    def test_allocations_tagged(self, phi_g):
        with track_allocations() as t:
            compute_velocities(phi_g, 3)
        assert t.count("velocity") == 3
        assert t.total_elements("velocity") == 3 * 7 * 36


class TestRangeFaceFlux:
    def test_full_range_matches_whole_box_flux(self, phi_g):
        vels = compute_velocities(phi_g, 3)
        tile = Box.cube(6, 3)
        for d in range(3):
            flux = range_face_flux(
                phi_g, vels, slice(None), d, 0, 6, tile, 3
            )
            sl = tuple(
                slice(None) if ax == d else slice(2, -2) for ax in range(3)
            ) + (slice(None),)
            face_phi = eval_flux1(phi_g[sl], axis=d)
            expect = face_phi * face_phi[..., velocity_component(d)][..., None]
            assert np.array_equal(flux, expect)

    def test_subrange_is_slice_of_full(self, phi_g):
        vels = compute_velocities(phi_g, 3)
        tile = Box.from_extents((0, 2, 0), (6, 2, 6))
        full = range_face_flux(phi_g, vels, slice(None), 1, 0, 6, Box.cube(6, 3), 3)
        part = range_face_flux(phi_g, vels, slice(None), 1, 2, 4, tile, 3)
        assert np.array_equal(part, full[:, 2:5, :, :][..., :])

    def test_single_component(self, phi_g):
        vels = compute_velocities(phi_g, 3)
        tile = Box.cube(6, 3)
        all_c = range_face_flux(phi_g, vels, slice(None), 0, 0, 6, tile, 3)
        one = range_face_flux(phi_g, vels, 2, 0, 0, 6, tile, 3)
        assert np.array_equal(one, all_c[..., 2])


class TestFusedSweep:
    def test_accumulates_not_overwrites(self, phi_g):
        vels = compute_velocities(phi_g, 3)
        phi1 = np.full((6, 6, 6, 5), 100.0, order="F")
        fused_sweep(phi_g, phi1, vels, slice(None), 3)
        phi1_zero = np.zeros((6, 6, 6, 5), order="F")
        fused_sweep(phi_g, phi1_zero, vels, slice(None), 3)
        assert np.allclose(phi1 - 100.0, phi1_zero)

    def test_unsupported_dim(self, phi_g):
        with pytest.raises(NotImplementedError):
            fused_sweep(phi_g, np.zeros((6,) * 4 + (5,)), [], slice(None), 4)

    @pytest.mark.parametrize("loop", ["CLO", "CLI"])
    @pytest.mark.parametrize(
        "shape", [(5, 7, 9), (1, 6, 3), (7, 2), (1, 5)], ids=str
    )
    def test_matches_reference_on_anisotropic_boxes(self, shape, loop):
        dim = len(shape)
        g = random_initial_data(tuple(n + 4 for n in shape), seed=5)
        vels = compute_velocities(g, dim)
        phi1 = g[(slice(2, -2),) * dim].copy(order="F")
        sels = [slice(None)] if loop == "CLI" else range(g.shape[-1])
        for sel in sels:
            fused_sweep(g, phi1, vels, sel, dim)
        assert np.array_equal(phi1, reference_kernel(g))

    def test_flux_working_set_is_quadratic(self):
        """One 3-D sweep holds O(C(N+1)²) flux, never a whole-box array."""
        peaks = {}
        for n in (16, 32):
            g = random_initial_data((n + 4,) * 3, seed=3)
            ncomp = g.shape[-1]
            vels = compute_velocities(g, 3)
            phi1 = np.zeros((n,) * 3 + (ncomp,), order="F")
            tracemalloc.start()
            try:
                fused_sweep(g, phi1, vels, slice(None), 3)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[n] <= 12 * ncomp * (n + 1) ** 2 * 8
        assert peaks[32] < 5 * peaks[16]


class TestSharedSeriesGroups:
    def test_group_structure(self, phi_g):
        phi1 = phi_g[2:-2, 2:-2, 2:-2, :].copy(order="F")
        groups = _series_shared_groups(
            phi_g, phi1, 0, 3, 5, clo=True, chunks=3
        )
        assert len(groups) == 9  # 3 directions x (flux1, flux2, accum)
        assert all(len(g.tasks) == 3 for g in groups)

    @pytest.mark.parametrize("clo", [True, False])
    @pytest.mark.parametrize("chunks", [1, 2, 5])
    def test_matches_reference(self, phi_g, clo, chunks):
        ref = reference_kernel(phi_g)
        phi1 = phi_g[2:-2, 2:-2, 2:-2, :].copy(order="F")
        groups = _series_shared_groups(
            phi_g, phi1, 0, 3, 5, clo=clo, chunks=chunks
        )
        for g in groups:
            for task in g.tasks:
                task()
        assert np.array_equal(phi1, ref)
