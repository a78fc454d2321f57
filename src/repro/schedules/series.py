"""The original "series of loops" schedule (paper §IV-A, Fig. 6/7).

For each direction: interpolate every component to the faces (EvalFlux1
over the whole box), extract the face velocity, form the flux
(EvalFlux2), and accumulate the flux difference into every cell.  The
full C-component face array is live between the passes — O(C·(N+1)³)
flux temporary — and the input is streamed once per direction, which is
what starves memory bandwidth at N=128.

Component-loop placement (the CLO/CLI axis):

* **CLI** (component loop inside): all components are processed together
  at each face; the face velocity must be copied out before EvalFlux2
  overwrites its slot — the O((N+1)³) velocity temporary of Table I.
* **CLO** (component loop outside): components are processed one at a
  time; doing the velocity component's EvalFlux2 *last* lets the flux
  array itself hold the interpolated velocity, eliminating the velocity
  temporary (§IV-A "no temporary storage is required for the velocity").

What CLO means in NumPy: the scratch arrays are Fortran-ordered, so the
component axis has the largest stride and a single ufunc call over all
components iterates them outermost — that call *is* the CLO loop nest.
Each pass is therefore one call over every component; the flux product
is three (the components before ``vd``, those after it, then ``vd``).
Elementwise IEEE arithmetic gives the same bits at any call granularity.
"""

from __future__ import annotations

import numpy as np

from ..exemplar.flux import (
    accumulate_divergence,
    eval_flux1,
    multiply_face_velocity,
)
from ..exemplar.state import velocity_component
from ..stencil.operators import FACE_INTERP_GHOST
from ..util.alloc import alloc_scratch
from ..util.arena import scratch_scope
from .base import BoxExecutor

__all__ = ["SeriesExecutor"]


class SeriesExecutor(BoxExecutor):
    """Baseline series-of-loops schedule; N-dimensional."""

    def run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        with scratch_scope():
            self._run(phi_g, phi1)

    def _run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        g = FACE_INTERP_GHOST
        dim, ncomp = self.dim, self.ncomp
        if phi_g.ndim != dim + 1 or phi_g.shape[-1] != ncomp:
            raise ValueError(
                f"phi_g shape {phi_g.shape} inconsistent with dim={dim}, ncomp={ncomp}"
            )
        clo = self.variant.component_loop == "CLO"
        for d in range(dim):
            sl = tuple(
                slice(None) if ax == d else slice(g, -g) for ax in range(dim)
            ) + (slice(None),)
            view = phi_g[sl]
            face_shape = tuple(
                view.shape[ax] - 3 if ax == d else view.shape[ax]
                for ax in range(dim)
            )
            flux = alloc_scratch("flux", face_shape + (ncomp,))
            vd = velocity_component(d)
            eval_flux1(view, axis=d, out=flux)
            if clo:
                multiply_face_velocity(flux, vd)
            else:
                velocity = alloc_scratch("velocity", face_shape)
                velocity[...] = flux[..., vd]
                np.multiply(flux, velocity[..., None], out=flux)
            accumulate_divergence(phi1, flux, axis=d)

    def logical_temporaries(self, n: int) -> dict[str, int]:
        c = self.ncomp
        faces = (n + 1) ** self.dim
        return {
            "flux": c * faces,
            "velocity": 0 if self.variant.component_loop == "CLO" else faces,
        }
