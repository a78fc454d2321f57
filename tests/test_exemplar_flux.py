"""Unit tests for the exemplar flux primitives (Eqs. 6-7)."""

import hashlib

import numpy as np
import pytest

from repro.exemplar import (
    accumulate_divergence,
    axslice,
    eval_flux1,
    eval_flux2,
    reference_kernel,
    velocity_component,
)
from repro.exemplar.flux import multiply_face_velocity


def same_bits(x, y):
    return x.shape == y.shape and (
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()
    )


class TestAxslice:
    def test_views(self):
        a = np.arange(24).reshape(2, 3, 4)
        assert np.array_equal(axslice(a, 1, 1, 3), a[:, 1:3, :])
        assert axslice(a, 2, 0, 2).shape == (2, 3, 2)

    def test_negative_axis(self):
        a = np.arange(24).reshape(2, 3, 4)
        assert np.array_equal(axslice(a, -1, 1, 3), a[..., 1:3])
        assert np.array_equal(axslice(a, -3, 1, 2), a[1:2])

    @pytest.mark.parametrize("axis", [3, -4])
    def test_axis_out_of_range(self, axis):
        with pytest.raises(IndexError):
            axslice(np.zeros((2, 3, 4)), axis, 0, 1)


class TestEvalFlux1:
    def test_shape(self):
        phi = np.zeros((10, 4, 5))
        out = eval_flux1(phi, axis=0)
        assert out.shape == (7, 4, 5)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            eval_flux1(np.zeros((3, 4)), axis=0)

    def test_constant_preserved(self):
        phi = np.full((8,), 3.0)
        faces = eval_flux1(phi, axis=0)
        assert np.allclose(faces, 3.0)

    def test_exact_for_cubic_cell_averages(self):
        i = np.arange(-2.0, 10.0)
        k = 3
        cell_avg = ((i + 1) ** (k + 1) - i ** (k + 1)) / (k + 1)
        faces = eval_flux1(cell_avg, axis=0)
        # Face j of the output corresponds to coordinate i[j+2] = j.
        expect = np.arange(0.0, 9.0) ** k
        assert np.allclose(faces, expect)

    def test_out_parameter(self):
        phi = np.random.default_rng(0).random((8, 3))
        out = np.empty((5, 3))
        r = eval_flux1(phi, axis=0, out=out)
        assert r is out
        assert np.array_equal(out, eval_flux1(phi, axis=0))

    def test_matches_documented_expression(self):
        rng = np.random.default_rng(3)
        phi = rng.random(12)
        faces = eval_flux1(phi, axis=0)
        for f in range(len(faces)):
            c = f + 2  # cell index of the face's high-side cell
            expect = (7.0 / 12.0) * (phi[c - 1] + phi[c]) - (1.0 / 12.0) * (
                phi[c + 1] + phi[c - 2]
            )
            assert faces[f] == expect  # bitwise


    def test_out_overlapping_phi_rejected(self):
        phi = np.random.default_rng(1).random((10, 3))
        with pytest.raises(ValueError, match="overlap"):
            eval_flux1(phi, axis=0, out=phi[:7])
        with pytest.raises(ValueError, match="overlap"):
            eval_flux1(phi, axis=0, out=phi[3:])


def literal_flux1(phi, axis):
    """The expression eval_flux1 has always evaluated, written out whole."""
    x = np.moveaxis(phi, axis, 0)
    m = x.shape[0]
    a, b, c, d = x[1:m - 2], x[2:m - 1], x[3:m], x[0:m - 3]
    return np.moveaxis((7.0 / 12.0) * (a + b) - (1.0 / 12.0) * (c + d), 0, axis)


class TestEvalFlux1FrozenOracle:
    """eval_flux1 is the one primitive every variant *and* the reference
    share, so the schedule-equivalence tests cannot see a rounding change
    in it.  These pin it bitwise against the literal expression."""

    @staticmethod
    def make(ncomp, order, strided):
        rng = np.random.default_rng(2014)
        spatial = (6, 7, 5, 8)
        comp = (ncomp,) if ncomp else ()
        if strided:
            big = rng.uniform(-2.0, 2.0, size=(9, 15, 7, 10) + ((ncomp + 2,) if ncomp else ()))
            big = np.asarray(big, order=order)
            sl = (slice(1, 7), slice(0, 14, 2), slice(2, 7), slice(1, 9))
            phi = big[sl + ((slice(1, ncomp + 1),) if ncomp else ())]
            assert not (phi.flags.c_contiguous or phi.flags.f_contiguous)
            return phi
        return np.asarray(rng.uniform(-2.0, 2.0, size=spatial + comp), order=order)

    @pytest.mark.parametrize("axis", [0, 1, 2, 3, -1])
    @pytest.mark.parametrize("ncomp", [0, 5], ids=["spatial", "components"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("strided", [False, True], ids=["whole", "strided"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["alloc", "out"])
    def test_bitwise_literal_expression(self, axis, ncomp, order, strided, with_out):
        phi = self.make(ncomp, order, strided)
        expect = literal_flux1(phi, axis)
        if with_out:
            out = np.empty(expect.shape, order=order)
            assert eval_flux1(phi, axis=axis, out=out) is out
        else:
            out = eval_flux1(phi, axis=axis)
        assert same_bits(out, expect)

    # sha256 of reference_kernel's output (C-order bytes).  Every variant
    # shares the primitives the reference uses, so a rounding change in
    # them moves these hashes and nothing else.
    PINNED = {
        "3d-12": ((16, 16, 16, 5), 2014,
                  "f19de725e6144cd15212cf3164592a538bc5a07d381b2af9ea75a7e7b3a253b3"),
        "2d-16x10": ((20, 14, 4), 2015,
                     "c89f2cbfc7adea36757b085c87b583a402c3e01714d9e4eb6ce08763db1a6f48"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_reference_kernel_hash_pinned(self, case):
        shape, seed, digest = self.PINNED[case]
        phi_g = np.random.default_rng(seed).random(shape)
        out = reference_kernel(phi_g)
        assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == digest


class TestMultiplyFaceVelocity:
    @pytest.mark.parametrize("vd", [0, 1, 2, 4])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_eval_flux2(self, vd, order):
        face = np.asarray(np.random.default_rng(vd).random((5, 6, 5)), order=order)
        expect = eval_flux2(face, face[..., vd])
        out = face.copy(order=order)
        assert multiply_face_velocity(out, vd) is out
        assert same_bits(out, expect)


class TestEvalFlux2:
    def test_broadcast_component_axis(self):
        face = np.ones((4, 4, 5))
        vel = np.full((4, 4), 2.0)
        out = eval_flux2(face, vel)
        assert out.shape == (4, 4, 5)
        assert np.all(out == 2.0)

    def test_same_rank(self):
        face = np.full((4,), 3.0)
        vel = np.full((4,), 2.0)
        assert np.all(eval_flux2(face, vel) == 6.0)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            eval_flux2(np.ones((4, 4, 5)), np.ones(4))

    def test_out_parameter_in_place(self):
        face = np.full((4, 2), 3.0)
        vel = np.full((4,), 2.0)
        r = eval_flux2(face, vel[:, None], out=face)
        assert r is face
        assert np.all(face == 6.0)


class TestAccumulateDivergence:
    def test_telescoping(self):
        rng = np.random.default_rng(2)
        flux = rng.random((9, 4))
        phi1 = np.zeros((8, 4))
        accumulate_divergence(phi1, flux, axis=0)
        assert np.allclose(phi1.sum(axis=0), flux[-1] - flux[0])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            accumulate_divergence(np.zeros(8), np.zeros(8), axis=0)

    def test_accumulates_not_overwrites(self):
        flux = np.arange(3.0)
        phi1 = np.full(2, 10.0)
        accumulate_divergence(phi1, flux, axis=0)
        assert np.array_equal(phi1, [11.0, 11.0])


class TestVelocityComponent:
    def test_mapping(self):
        assert [velocity_component(d) for d in range(3)] == [1, 2, 3]

    def test_higher_dimensions_allowed(self):
        # Fig. 1 includes 4-D boxes; direction d uses component d+1.
        assert velocity_component(3) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            velocity_component(-1)
