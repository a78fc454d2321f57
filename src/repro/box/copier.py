"""Exchange copiers: precomputed ghost-cell copy plans.

Mirrors Chombo's ``Copier``.  Filling the ghost ring of every box from
the physical cells of its neighbours (including periodic images) is a
pure box-calculus problem; the plan is computed once per
(layout, ghost-width) pair and replayed every exchange.

The copier also reports the *communication volume* each exchange moves,
which drives the ghost-overhead studies (Fig. 1 context) and the
distributed cost accounting in the machine model: copies between boxes
on the same rank are local, copies between ranks would be MPI messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.cache import BoundedCache
from .box import Box
from .intvect import IntVect
from .layout import DisjointBoxLayout

__all__ = ["CopyItem", "ExchangeCopier", "shared_copier", "clear_copier_cache"]


@dataclass(frozen=True)
class CopyItem:
    """One copy: ``src_region`` of box ``src`` -> ``dst_region`` of box ``dst``.

    The two regions have identical shapes; for periodic images they are
    offset by a domain-size shift.
    """

    src: int
    dst: int
    src_region: Box
    dst_region: Box

    @property
    def num_points(self) -> int:
        return self.dst_region.num_points()


class ExchangeCopier:
    """A reusable ghost-fill plan for one layout and ghost width."""

    def __init__(self, layout: DisjointBoxLayout, ghost: int):
        if ghost < 0:
            raise ValueError(f"ghost width must be >= 0, got {ghost}")
        self.layout = layout
        self.ghost = ghost
        self.items: list[CopyItem] = []
        if ghost > 0:
            self._build()

    def _build(self) -> None:
        layout = self.layout
        domain = layout.domain
        dim = domain.dim
        zero = (0,) * dim
        for dst_idx in layout:
            dst_box = layout.box(dst_idx)
            grown = dst_box.grow(self.ghost)
            # Ghost region = grown minus the valid box; we enumerate
            # copies covering the grown box and drop the self-copy of
            # the valid interior.
            for shift in domain.periodic_shifts(grown):
                shifted = grown.shift_vect(shift)
                for src_idx in layout.boxes_intersecting(shifted):
                    if src_idx == dst_idx and shift.to_tuple() == zero:
                        # The valid interior copied onto itself: skip.
                        # (Boxes are disjoint, so any other zero-shift
                        # overlap is pure ghost region.)
                        continue
                    src_box = layout.box(src_idx)
                    overlap = shifted.intersect(src_box)
                    if overlap.is_empty:
                        continue
                    dst_region = overlap.shift_vect(-shift)
                    self.items.append(
                        CopyItem(src_idx, dst_idx, overlap, dst_region)
                    )

    # -- accounting -----------------------------------------------------------------
    def total_ghost_points(self) -> int:
        """Total index points copied per exchange (per component)."""
        return sum(item.num_points for item in self.items)

    def off_rank_points(self) -> int:
        """Points copied between different ranks (MPI traffic in Chombo)."""
        layout = self.layout
        return sum(
            item.num_points
            for item in self.items
            if layout.rank(item.src) != layout.rank(item.dst)
        )

    def bytes_per_exchange(self, ncomp: int, itemsize: int = 8) -> int:
        """Bytes moved by one exchange of an ``ncomp``-component field."""
        return self.total_ghost_points() * ncomp * itemsize

    def __repr__(self) -> str:
        return (
            f"ExchangeCopier[{len(self.items)} copies, ghost={self.ghost}, "
            f"{self.total_ghost_points()} pts]"
        )


# Keyed by layout *content*: the plan is pure box calculus on an
# immutable layout, so an independently constructed but content-equal
# layout — benchmarks and the serving layer each decomposing the same
# domain — replays one shared plan, which identity keying would miss.
_PLAN_CACHE = BoundedCache("copier_cache", 256)


def shared_copier(layout: DisjointBoxLayout, ghost: int) -> ExchangeCopier:
    """The process-wide cached exchange plan for (layout content, ghost)."""
    return _PLAN_CACHE.get_or_build(
        (layout.structure_key(), int(ghost)),
        lambda: ExchangeCopier(layout, ghost),
    )


def clear_copier_cache() -> None:
    """Drop every cached exchange plan."""
    _PLAN_CACHE.clear()
