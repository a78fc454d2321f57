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

import math
from dataclasses import dataclass
from operator import add

from ..util.cache import BoundedCache
from .box import Box
from .intvect import IntVect
from .layout import DisjointBoxLayout

__all__ = [
    "CopyItem",
    "ExchangeCopier",
    "clear_copier_cache",
    "pair_points",
    "shared_copier",
]


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


def _box_copies(layout: DisjointBoxLayout, ghost: int, dst_idx: int):
    """Yield ``(src, src_region, dst_region)`` for every copy into one box.

    The one enumerator of copies: box calculus over the grown box, its
    periodic images and the boxes they touch.
    """
    domain = layout.domain
    zero = (0,) * domain.dim
    grown = layout.box(dst_idx).grow(ghost)
    # Ghost region = grown minus the valid box; we enumerate copies
    # covering the grown box and drop the self-copy of the valid
    # interior.
    for shift in domain.periodic_shifts(grown):
        shifted = grown.shift_vect(shift)
        for src_idx in layout.boxes_intersecting(shifted):
            if src_idx == dst_idx and shift.to_tuple() == zero:
                # The valid interior copied onto itself: skip.  (Boxes
                # are disjoint, so any other zero-shift overlap is pure
                # ghost region.)
                continue
            overlap = shifted.intersect(layout.box(src_idx))
            if overlap.is_empty:
                continue
            yield src_idx, overlap, overlap.shift_vect(-shift)


def _plan_rows(layout: DisjointBoxLayout, ghost: int):
    """Yield ``(dst, srcs, cell_shift, rows)`` for every box, in layout order.

    ``rows`` are the copies of the box's *position class* representative
    as ``(src_lo, src_hi, dst_lo, dst_hi, points)``; the box's own
    copies are those rows read from boxes ``srcs`` with every corner
    translated by ``cell_shift``.

    On a uniform tiling of the domain a box's copies depend on its block
    coordinate ``c`` only through ``(min(c, k), min(count - 1 - c, k))``
    per axis, ``k = ceil(ghost / box size)``: an axis where either
    distance is below ``k`` pins ``c``, and on the others the grown box
    stays inside the domain, so no periodic image or missing neighbour
    distinguishes two boxes of a class.  :func:`_box_copies` therefore
    runs once per class (at most ``(2k + 1) ** dim`` times), and a
    source is found by its linearised block coordinate, which translates
    with the box.  Any other layout makes every box its own class, keyed
    by layout index.
    """
    tiling = layout.uniform_tiling()
    if tiling is None:
        keys = lookup = class_of = range(len(layout))
    else:
        size, counts, coords = tiling
        strides = [math.prod(counts[:d]) for d in range(len(counts))]
        keys = [sum(c * s for c, s in zip(coord, strides)) for coord in coords]
        lookup = [0] * len(keys)
        for idx, key in enumerate(keys):
            lookup[key] = idx
        reach = [-(-ghost // s) for s in size]
        class_of = [
            tuple(
                (min(c, k), min(n - 1 - c, k))
                for c, n, k in zip(coord, counts, reach)
            )
            for coord in coords
        ]
    representatives: dict = {}
    for dst in layout:
        lo = layout.box(dst).lo.to_tuple()
        rep = representatives.get(class_of[dst])
        if rep is None:
            src_keys, rows = [], []
            for src, src_region, dst_region in _box_copies(layout, ghost, dst):
                src_keys.append(keys[src])
                rows.append(
                    (
                        src_region.lo.to_tuple(),
                        src_region.hi.to_tuple(),
                        dst_region.lo.to_tuple(),
                        dst_region.hi.to_tuple(),
                        dst_region.num_points(),
                    )
                )
            rep = representatives[class_of[dst]] = (keys[dst], lo, src_keys, rows)
        rep_key, rep_lo, src_keys, rows = rep
        key_shift = keys[dst] - rep_key
        cell_shift = tuple(a - b for a, b in zip(lo, rep_lo))
        yield dst, [lookup[k + key_shift] for k in src_keys], cell_shift, rows


def pair_points(layout: DisjointBoxLayout, ghost: int) -> dict[tuple[int, int], int]:
    """Ghost points copied per ``(src box, dst box)`` pair, in plan order.

    The tally :class:`ExchangeCopier` ``items`` would fold to, taken
    from the class rows without building the items.
    """
    if ghost < 0:
        raise ValueError(f"ghost width must be >= 0, got {ghost}")
    tally: dict[tuple[int, int], int] = {}
    for dst, srcs, _, rows in _plan_rows(layout, ghost):
        for src, row in zip(srcs, rows):
            pair = (src, dst)
            tally[pair] = tally.get(pair, 0) + row[-1]
    return tally


def _translated(lo: tuple, hi: tuple, shift: tuple) -> Box:
    return Box(IntVect(map(add, lo, shift)), IntVect(map(add, hi, shift)))


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
        for dst, srcs, shift, rows in _plan_rows(self.layout, self.ghost):
            for src, (src_lo, src_hi, dst_lo, dst_hi, _) in zip(srcs, rows):
                self.items.append(
                    CopyItem(
                        src,
                        dst,
                        _translated(src_lo, src_hi, shift),
                        _translated(dst_lo, dst_hi, shift),
                    )
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
