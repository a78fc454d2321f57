"""The shifted-and-fused schedule (paper §IV-B, Fig. 8a).

The three face loops are shifted so a cell's low/high face fluxes align
with the cell iteration, then fused with the accumulation: one sweep
over cells computes the x-face fluxes on the fly, rolls the y-face flux
of the previous row forward (the high face of row ``j`` is the low face
of row ``j+1``), and rolls a z-face flux plane across planes.  The flux
temporary collapses from O(C(N+1)³) to O(2 + 2N + 2N²); the face
velocities are still precomputed per direction — 3(N+1)³ (Table I).

Vectorization note (honest deviation): the paper's x fusion keeps 2
scalars and its y fusion 2 pencils; an interpreted per-cell or per-row
loop would defeat the measurement.  This realization rolls only the
outermost axis (z in 3-D, y in 2-D): per outer slab it evaluates each
inner direction's face fluxes over the whole slab in one call, adds
them in x, y order, then adds the rolled outer-face pair.  Every cell
still receives the same expressions in x, y, z order, so results are
bitwise-identical to the reference.  The realized 3-D flux footprint is
2N² + 2N(N+1) per component (one slab of x and y faces plus the rolled
z pair) against Table I's 2 + 2N + 2N² — still O(N²), never the series
schedule's (N+1)³; with the flux arithmetic's temporaries a sweep peaks
near 5·C(N+1)² doubles.
"""

from __future__ import annotations

import numpy as np

from ..exemplar.flux import accumulate_divergence, eval_flux1, eval_flux2
from ..exemplar.state import velocity_component
from ..stencil.operators import FACE_INTERP_GHOST
from ..util.alloc import alloc_scratch
from ..util.arena import scratch_scope
from .base import BoxExecutor, Variant

__all__ = ["ShiftFuseExecutor", "compute_velocities", "fused_sweep"]


def compute_velocities(phi_g: np.ndarray, dim: int) -> list[np.ndarray]:
    """Precompute the face velocity for every direction (Table I's 3(N+1)³).

    ``velocities[d]`` has ``N_d + 1`` faces along ``d`` and the interior
    extent transverse — the 4th-order interpolation of component ``d+1``.
    """
    g = FACE_INTERP_GHOST
    out: list[np.ndarray] = []
    for d in range(dim):
        sl = tuple(
            slice(None) if ax == d else slice(g, -g) for ax in range(dim)
        ) + (velocity_component(d),)
        view = phi_g[sl]
        shape = tuple(
            view.shape[ax] - 3 if ax == d else view.shape[ax]
            for ax in range(dim)
        )
        vel = alloc_scratch("velocity", shape)
        eval_flux1(view, axis=d, out=vel)
        out.append(vel)
    return out


def fused_sweep(
    phi_g: np.ndarray,
    phi1: np.ndarray,
    velocities: list[np.ndarray],
    comp_sel,
    dim: int,
) -> None:
    """One shifted-and-fused sweep accumulating all directions into ``phi1``.

    ``comp_sel`` is ``slice(None)`` for CLI (all components together) or
    a component index for CLO.  The outermost axis is rolled one slab at
    a time; per-cell accumulation order is x, y, z — matching the
    reference — so results are bitwise identical.
    """
    if dim not in (2, 3):
        raise NotImplementedError("fused sweep supports dim 2 and 3")
    g = FACE_INTERP_GHOST
    outer = dim - 1

    def face_flux(d, start, stop, face):
        """Direction-``d`` flux over outer-axis window ``start:stop`` of
        ``phi_g``, using the velocity of outer-axis position ``face``."""
        cells = phi_g[tuple(
            slice(None) if ax == d else slice(g, -g) for ax in range(outer)
        ) + (slice(start, stop), comp_sel)]
        vel = velocities[d][..., face:face + 1]
        return eval_flux2(eval_flux1(cells, axis=d), vel)

    f_lo = face_flux(outer, 0, 4, 0)
    for k in range(phi1.shape[outer]):
        slab = phi1[..., k:k + 1, comp_sel]
        for d in range(outer):
            accumulate_divergence(slab, face_flux(d, k + g, k + g + 1, k), axis=d)
        f_hi = face_flux(outer, k + 1, k + 5, k + 1)
        slab += f_hi - f_lo
        f_lo = f_hi


class ShiftFuseExecutor(BoxExecutor):
    """Shifted-and-fused schedule for dim 2 or 3."""

    def __init__(self, variant: Variant, dim: int = 3, ncomp: int = 5):
        if dim not in (2, 3):
            raise NotImplementedError("shift-fuse supports dim 2 and 3")
        super().__init__(variant, dim=dim, ncomp=ncomp)

    def run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        with scratch_scope():
            velocities = compute_velocities(phi_g, self.dim)
            if self.variant.component_loop == "CLI":
                fused_sweep(phi_g, phi1, velocities, slice(None), self.dim)
            else:
                for c in range(self.ncomp):
                    fused_sweep(phi_g, phi1, velocities, c, self.dim)

    def logical_temporaries(self, n: int) -> dict[str, int]:
        # Table I: flux 2 + 2N + 2N² (per component); velocity 3(N+1)³.
        if self.dim == 3:
            flux = 2 + 2 * n + 2 * n * n
            vel = 3 * (n + 1) ** 3
        else:
            flux = 2 + 2 * n
            vel = 2 * (n + 1) ** 2
        if self.variant.component_loop == "CLI":
            flux *= self.ncomp
        return {"flux": flux, "velocity": vel}
