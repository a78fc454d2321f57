"""LevelData: distributed field data over a box layout, with ghost exchange.

Mirrors Chombo's ``LevelData<FArrayBox>``: one FArrayBox per layout box,
each allocated over the box grown by a ghost ring.  ``exchange()`` fills
every ghost cell from the physical cells of the owning box, honouring
periodicity, by replaying a precomputed :class:`ExchangeCopier` plan.

The class tracks cumulative exchange statistics (points and bytes moved)
because the paper's motivation — moving to large boxes — is precisely
about reducing this volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copier import ExchangeCopier, shared_copier
from .farraybox import FArrayBox
from .layout import DisjointBoxLayout

__all__ = ["LevelData", "ExchangeStats"]


@dataclass
class ExchangeStats:
    """Cumulative ghost-exchange accounting."""

    exchanges: int = 0
    points: int = 0
    bytes: int = 0
    off_rank_points: int = 0

    def record(self, copier: ExchangeCopier, ncomp: int, itemsize: int = 8) -> None:
        self.exchanges += 1
        pts = copier.total_ghost_points()
        self.points += pts
        self.bytes += pts * ncomp * itemsize
        self.off_rank_points += copier.off_rank_points()


class LevelData:
    """Field data over every box of a layout, with a ghost ring.

    Parameters
    ----------
    layout:
        The disjoint box layout.
    ncomp:
        Components per cell.
    ghost:
        Ghost-ring width (2 for the exemplar's 4th-order stencil).
    """

    def __init__(self, layout: DisjointBoxLayout, ncomp: int = 1, ghost: int = 0):
        self.layout = layout
        self.ncomp = int(ncomp)
        self.ghost = int(ghost)
        self.fabs: list[FArrayBox] = [
            FArrayBox(layout.box(i).grow(self.ghost), self.ncomp) for i in layout
        ]
        self._copier: ExchangeCopier | None = None
        self.stats = ExchangeStats()

    # -- access -----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fabs)

    def __getitem__(self, index: int) -> FArrayBox:
        return self.fabs[index]

    def copier(self) -> ExchangeCopier:
        """The (lazily fetched) exchange plan, shared across all
        LevelData over the same (layout, ghost)."""
        if self._copier is None:
            self._copier = shared_copier(self.layout, self.ghost)
        return self._copier

    # -- whole-level operations ----------------------------------------------------------
    def set_val(self, value: float) -> None:
        """Fill every box (including ghosts) with a constant."""
        for fab in self.fabs:
            fab.set_val(value)

    def fill_from_function(self, fn) -> None:
        """Initialize valid cells from ``fn(x_idx, y_idx, ..., comp) -> array``.

        ``fn`` receives open mesh grids of *global* integer cell indices
        (one array per spatial dimension) plus the component index, and
        must return an array broadcastable to the valid-box shape.  Ghost
        cells are left untouched (call :meth:`exchange` afterwards).
        """
        for i in self.layout:
            box = self.layout.box(i)
            grids = np.ogrid[
                tuple(slice(box.lo[d], box.hi[d] + 1) for d in range(box.dim))
            ]
            view = self.fabs[i].window(box)
            for c in range(self.ncomp):
                view[..., c] = fn(*grids, c)

    def exchange(self) -> None:
        """Fill every ghost cell from the owning box's physical cells."""
        if self.ghost == 0:
            return
        plan = self.copier()
        for item in plan.items:
            self.fabs[item.dst].copy_from(
                self.fabs[item.src],
                region=item.dst_region,
                src_region=item.src_region,
            )
        self.stats.record(plan, self.ncomp)

    def norm(self, order: int = 2) -> float:
        """Norm over all valid (non-ghost) cells of the level."""
        if order == 0:
            return max(
                fab.norm(0, region=self.layout.box(i))
                for i, fab in enumerate(self.fabs)
            )
        acc = sum(
            fab.norm(order, region=self.layout.box(i)) ** order
            for i, fab in enumerate(self.fabs)
        )
        return float(acc ** (1.0 / order))

    def to_global_array(self) -> np.ndarray:
        """Assemble all valid data into one global array (tests/examples).

        Shape is the domain's spatial shape plus a trailing component
        axis; Fortran ordered.
        """
        dom = self.layout.domain.box
        out = np.zeros(dom.size() + (self.ncomp,), dtype=np.float64, order="F")
        for i in self.layout:
            box = self.layout.box(i)
            out[box.slices_within(dom)] = self.fabs[i].window(box)
        return out

    def __repr__(self) -> str:
        return (
            f"LevelData[{len(self)} boxes, ncomp={self.ncomp}, ghost={self.ghost}]"
        )
