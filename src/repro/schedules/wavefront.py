"""Shifted, fused, and tiled with wavefront parallelism (paper §IV-C, Fig. 8b).

The box is decomposed into tiles; tile (tx,ty,tz) consumes the flux on
its low-side boundary faces from the tiles one step lower in each
direction and produces the flux on its high-side boundary faces for the
tiles one step higher.  Tiles with equal coordinate sum form a
*wavefront*: within a wavefront there are no cache dependencies, so
those tiles run in parallel, with a barrier between wavefronts.

The co-dimension flux cache holds only the frontier planes between
wavefronts — O(3CN²) live at once (Table I) — instead of the baseline's
O(C(N+1)³) face arrays.  With the component loop outside (CLO) the
cache is 3-D (one component in flight); inside (CLI) it is 4-D.
"""

from __future__ import annotations

import numpy as np

from ..box.box import Box
from ..exemplar.flux import accumulate_divergence, eval_flux1, eval_flux2
from ..stencil.operators import FACE_INTERP_GHOST
from ..util.alloc import alloc_scratch
from ..util.arena import scratch_scope
from .base import BoxExecutor, Variant
from .shift_fuse import compute_velocities
from .tiling import TileGrid

__all__ = ["BlockedWavefrontExecutor", "range_face_flux"]


def range_face_flux(
    phi_g: np.ndarray,
    velocities: list[np.ndarray],
    comp_sel,
    d: int,
    face_lo: int,
    face_hi: int,
    transverse: Box,
    dim: int,
) -> np.ndarray:
    """Flux on faces ``face_lo..face_hi`` (local indices) along ``d``.

    ``transverse`` is the tile's cell box in local (box-relative)
    coordinates; its extent along ``d`` is ignored.  Reads the 4-cell
    stencil band from the ghosted box data and multiplies by the
    precomputed face velocity.
    """
    g = FACE_INTERP_GHOST
    cell_sl = []
    vel_sl = []
    for ax in range(dim):
        if ax == d:
            cell_sl.append(slice(face_lo + g - 2, face_hi + g + 2))
            vel_sl.append(slice(face_lo, face_hi + 1))
        else:
            cell_sl.append(slice(transverse.lo[ax] + g, transverse.hi[ax] + 1 + g))
            vel_sl.append(slice(transverse.lo[ax], transverse.hi[ax] + 1))
    face = eval_flux1(phi_g[tuple(cell_sl) + (comp_sel,)], axis=d)
    vel = velocities[d][tuple(vel_sl)]
    return eval_flux2(face, vel)


class BlockedWavefrontExecutor(BoxExecutor):
    """Blocked wavefront schedule for dim 2 or 3."""

    def __init__(self, variant: Variant, dim: int = 3, ncomp: int = 5):
        if dim not in (2, 3):
            raise NotImplementedError("blocked wavefront supports dim 2 and 3")
        super().__init__(variant, dim=dim, ncomp=ncomp)

    def run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        # One scratch scope for the whole box: frontier flux-cache
        # planes live across tiles, so they may only be recycled once
        # the full traversal is done.
        with scratch_scope():
            dim = self.dim
            velocities = compute_velocities(phi_g, dim)
            local = Box.from_extents((0,) * dim, phi1.shape[:-1])
            grid = TileGrid(local, self.variant.tile_size)
            if self.variant.component_loop == "CLI":
                self._traverse(phi_g, phi1, velocities, grid, slice(None))
            else:
                for c in range(self.ncomp):
                    self._traverse(phi_g, phi1, velocities, grid, c)

    def _traverse(self, phi_g, phi1, velocities, grid: TileGrid, comp_sel) -> None:
        # Frontier flux cache: (direction, consumer tile coords) -> plane.
        cache: dict[tuple, np.ndarray] = {}
        for wavefront in grid.wavefronts():
            for ti in wavefront:
                self.process_tile(phi_g, phi1, velocities, grid, comp_sel, ti, cache)

    def process_tile(
        self,
        phi_g: np.ndarray,
        phi1: np.ndarray,
        velocities: list[np.ndarray],
        grid: TileGrid,
        comp_sel,
        ti: int,
        cache: dict,
    ) -> None:
        """Process one tile: consume upstream flux planes, produce downstream.

        Thread-safety contract: tiles within one wavefront touch
        disjoint phi1 regions and disjoint cache keys (a tile writes
        only the keys of its downstream neighbours, which belong to the
        *next* wavefront), so a wavefront's tiles may run concurrently
        provided wavefronts are separated by a barrier.
        """
        dim = self.dim
        tb = grid.tile_box(ti)
        coords = grid.tile_coords(ti)
        psl = tuple(
            slice(tb.lo[ax], tb.hi[ax] + 1) for ax in range(dim)
        ) + (comp_sel,)
        phi1_tile = phi1[psl]
        for d in range(dim):
            f0, f1 = tb.lo[d], tb.hi[d] + 1
            if coords[d] > 0:
                lo_plane = cache.pop((d, coords))
                rest = range_face_flux(
                    phi_g, velocities, comp_sel, d, f0 + 1, f1, tb, dim
                )
                flux = np.concatenate(
                    [np.expand_dims(lo_plane, axis=d), rest], axis=d
                )
            else:
                flux = range_face_flux(
                    phi_g, velocities, comp_sel, d, f0, f1, tb, dim
                )
            accumulate_divergence(phi1_tile, flux, axis=d)
            # Hand the high-side plane to the downstream tile.
            succ = list(coords)
            succ[d] += 1
            if grid.index_of(succ) is not None:
                idx = [slice(None)] * flux.ndim
                idx[d] = -1
                plane = alloc_scratch("flux_cache", flux[tuple(idx)].shape)
                plane[...] = flux[tuple(idx)]
                cache[(d, tuple(succ))] = plane

    def logical_temporaries(self, n: int) -> dict[str, int]:
        c = self.ncomp
        t = self.variant.tile_size
        if self.dim == 3:
            base = 3 * n * n
            vel = 3 * (n + 1) ** 3
        else:
            base = 2 * n
            vel = 2 * (n + 1) ** 2
        # Table I: 2(3CN²) — two wavefronts of frontier planes in flight.
        # With the component loop inside, the frontier planes *and* the
        # per-tile flux band carry the component axis.
        comp = c if self.variant.component_loop == "CLI" else 1
        flux = 2 * base * comp
        return {
            "flux": flux,
            "velocity": vel,
            "tile_flux": (t + 1) * t ** (self.dim - 1) * comp,
        }
