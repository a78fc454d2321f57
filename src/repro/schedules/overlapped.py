"""Overlapped (communication-avoiding) tiles (paper §IV-D, Fig. 8c).

Every tile is expanded by one plane of flux operations in each
direction, removing *all* inter-tile dependencies: each tile computes
every face flux its own cells need, so fluxes on interior tile
boundaries are evaluated by both adjacent tiles — redundant computation
traded for perfect parallelism and tile-local temporaries (per thread,
O(C·T²) flux and O(C(T+1)³) velocity instead of box-sized arrays).

The schedule *inside* each tile is either the original series of loops
(``Basic-Sched OT-T`` in the figures) or shifted-and-fused
(``Shift-Fuse OT-T``); both reuse the corresponding executors on the
tile's grown view, so results stay bitwise-identical to the reference.
"""

from __future__ import annotations

import numpy as np

from ..box.box import Box
from ..stencil.operators import FACE_INTERP_GHOST
from ..util.arena import scratch_scope
from .base import BoxExecutor, Variant
from .series import SeriesExecutor
from .shift_fuse import ShiftFuseExecutor
from .tiling import TileGrid

__all__ = ["OverlappedTileExecutor"]


class OverlappedTileExecutor(BoxExecutor):
    """Overlapped tiling with a series or fused intra-tile schedule."""

    def __init__(self, variant: Variant, dim: int = 3, ncomp: int = 5):
        if dim not in (2, 3):
            raise NotImplementedError("overlapped tiles support dim 2 and 3")
        super().__init__(variant, dim=dim, ncomp=ncomp)
        if variant.intra_tile == "shift_fuse":
            inner_variant = Variant(
                "shift_fuse", component_loop=variant.component_loop
            )
            self._inner: BoxExecutor = ShiftFuseExecutor(inner_variant, dim, ncomp)
        elif variant.intra_tile == "wavefront":
            # Hierarchical overlapped tiling (Zhou et al. [50], §V):
            # independent outer tiles, each running a blocked wavefront
            # over inner sub-tiles — no redundant work *within* the
            # outer tile, parallel-for-free *across* outer tiles.
            from .wavefront import BlockedWavefrontExecutor

            inner_variant = Variant(
                "blocked_wavefront",
                "P<Box",
                variant.component_loop,
                tile_size=variant.inner_tile_size,
            )
            self._inner = BlockedWavefrontExecutor(inner_variant, dim, ncomp)
        else:
            inner_variant = Variant(
                "series", component_loop=variant.component_loop
            )
            self._inner = SeriesExecutor(inner_variant, dim, ncomp)

    def run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        with scratch_scope():
            self._run(phi_g, phi1)

    def _run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        g = FACE_INTERP_GHOST
        dim = self.dim
        local = Box.from_extents((0,) * dim, phi1.shape[:-1])
        grid = TileGrid(local, self.variant.tile_size)
        for tb in grid:
            # The tile grown by the stencil ghost width: for interior
            # tiles this reaches into neighbouring tiles' cells (the
            # overlap); at the box edge it reaches into the box ghosts.
            gsl = tuple(
                slice(tb.lo[ax], tb.hi[ax] + 1 + 2 * g) for ax in range(dim)
            ) + (slice(None),)
            psl = tuple(
                slice(tb.lo[ax], tb.hi[ax] + 1) for ax in range(dim)
            ) + (slice(None),)
            self._inner.run(phi_g[gsl], phi1[psl])

    def tile_grid_for(self, n: int) -> TileGrid:
        """The tile decomposition this executor would use on an N^dim box."""
        return TileGrid(Box.cube(n, self.dim), self.variant.tile_size)

    def redundant_face_evals(self, n: int) -> int:
        """Face values computed twice on an N^dim box (per component)."""
        return self.tile_grid_for(n).interior_shared_faces()

    def logical_temporaries(self, n: int) -> dict[str, int]:
        # Table I per-thread values: each thread holds one tile's scratch.
        t = self.variant.tile_size
        return {
            tag: val for tag, val in self._inner.logical_temporaries(t).items()
        }
