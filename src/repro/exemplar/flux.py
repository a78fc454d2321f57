"""The exemplar's flux arithmetic (paper Eqs. 6–7 and Fig. 6 lines 17–19).

These are the only functions in the package that evaluate the kernel's
floating-point expressions.  **Every schedule variant calls these same
primitives on different array windows**, which is what makes bitwise
equality across variants achievable: IEEE addition and multiplication
are deterministic elementwise, so as long as each face value is computed
by the same expression from the same inputs, and each cell accumulates
its three direction contributions in the same x,y,z order, results match
exactly regardless of traversal, tiling, or redundant recomputation.

Conventions
-----------
* Arrays are spatial axes first, optional trailing component axis.
* Face index ``i`` along the flux axis is the face at ``i - 1/2``.
* :func:`eval_flux1` consumes ``M`` cells along ``axis`` and produces
  ``M - 3`` faces: face ``f`` (counting from input cell index 2) reads
  cells ``f-2 .. f+1``.  With the exemplar's 2-ghost input, a box of
  ``N`` cells yields exactly ``N + 1`` faces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "axslice",
    "eval_flux1",
    "eval_flux2",
    "multiply_face_velocity",
    "accumulate_divergence",
    "FLOPS_FLUX1_PER_FACE",
    "FLOPS_FLUX2_PER_FACE",
    "FLOPS_ACCUM_PER_CELL",
]

#: Floating-point ops per face value in EvalFlux1: 2 adds + 2 mults + 1 subtract.
FLOPS_FLUX1_PER_FACE = 5
#: Floating-point ops per face value per component in EvalFlux2: 1 multiply.
FLOPS_FLUX2_PER_FACE = 1
#: Floating-point ops per cell per component in the accumulation:
#: 1 subtract + 1 add.
FLOPS_ACCUM_PER_CELL = 2


def axslice(arr: np.ndarray, axis: int, start, stop) -> np.ndarray:
    """View of ``arr`` sliced ``start:stop`` along one axis (negative
    axes count from the end)."""
    if axis < 0:
        if axis < -arr.ndim:
            raise IndexError(f"axis {axis} out of range for {arr.ndim}-D array")
        axis += arr.ndim
    return arr[(slice(None),) * axis + (slice(start, stop),)]


def eval_flux1(phi: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order face average (Eq. 6) along ``axis``.

    ``phi`` has ``M >= 4`` cells along ``axis``; the result has ``M - 3``
    faces.  The *operation sequence* is fixed — do not refactor it —
    because all schedule variants rely on every face being evaluated
    identically::

        face = 7/12*(phi[f-1] + phi[f]) - 1/12*(phi[f+1] + phi[f-2])

    It is written through one buffer: ``out = a + b``, ``out *= 7/12``,
    ``t = c + d``, ``t *= 1/12``, ``out -= t``.  Those are the
    expression's own IEEE operations on the same operands (multiply
    commutes), so any layout or call granularity gives the same bits.

    Aliasing rule: ``out`` is written before every read of ``phi`` is
    done, so an ``out`` that shares memory with ``phi`` is rejected
    with ``ValueError``.
    """
    m = phi.shape[axis]
    if m < 4:
        raise ValueError(f"need >= 4 cells along axis {axis}, got {m}")
    if out is not None and np.may_share_memory(out, phi):
        raise ValueError("eval_flux1: out must not overlap phi")
    a = axslice(phi, axis, 1, m - 2)   # cell f-1
    b = axslice(phi, axis, 2, m - 1)   # cell f
    c = axslice(phi, axis, 3, m)       # cell f+1
    d = axslice(phi, axis, 0, m - 3)   # cell f-2
    if out is None:
        out = a + b
    else:
        np.add(a, b, out=out)
    out *= 7.0 / 12.0
    t = c + d
    t *= 1.0 / 12.0
    out -= t
    return out


def eval_flux2(face_phi: np.ndarray, velocity: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Flux product (Eq. 7): every component times the face velocity.

    ``face_phi`` may carry a trailing component axis; ``velocity`` is
    the matching spatial-only array (component ``d+1`` of the first
    pass).  Broadcasting appends the component axis.
    """
    if face_phi.ndim == velocity.ndim + 1:
        v = velocity[..., None]
    elif face_phi.ndim == velocity.ndim:
        v = velocity
    else:
        raise ValueError(
            f"rank mismatch: face_phi {face_phi.ndim}D vs velocity {velocity.ndim}D"
        )
    if out is None:
        return face_phi * v
    np.multiply(face_phi, v, out=out)
    return out


def multiply_face_velocity(flux: np.ndarray, vd: int) -> np.ndarray:
    """EvalFlux2 in place, with the velocity held in the flux array.

    ``flux``'s component ``vd`` holds the interpolated face velocity;
    every other component is multiplied by it first and the ``vd`` slot
    itself last, so no velocity temporary is needed (§IV-A, the CLO
    form of Table I).  Three calls whatever the component count; each
    value is the same single product :func:`eval_flux2` forms.
    """
    vel = flux[..., vd]
    v = vel[..., None]
    np.multiply(flux[..., :vd], v, out=flux[..., :vd])
    np.multiply(flux[..., vd + 1:], v, out=flux[..., vd + 1:])
    np.multiply(vel, vel, out=vel)
    return flux


def accumulate_divergence(phi1: np.ndarray, flux: np.ndarray, axis: int) -> None:
    """Accumulate flux difference into cells (Fig. 6 lines 17–19).

    ``flux`` has ``n + 1`` faces along ``axis`` for ``phi1``'s ``n``
    cells: ``phi1(cell) += flux(cell + 1) - flux(cell)``.
    """
    nf = flux.shape[axis]
    if phi1.shape[axis] != nf - 1:
        raise ValueError(
            f"cells ({phi1.shape[axis]}) must be faces - 1 ({nf - 1}) along axis {axis}"
        )
    hi = axslice(flux, axis, 1, nf)
    lo = axslice(flux, axis, 0, nf - 1)
    phi1 += hi - lo
