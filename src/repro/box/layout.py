"""Disjoint box layouts: domain decomposition into boxes.

Mirrors Chombo's ``DisjointBoxLayout``: the global domain is split into
non-overlapping boxes (the coarsest grain of parallelism), each assigned
to a process/rank.  The paper's benchmark splits a 50,331,648-cell domain
into 12,288 boxes of 16³, 1,536 of 32³, 192 of 64³, or 24 of 128³.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .box import Box
from .intvect import IntVect
from .problem_domain import ProblemDomain

__all__ = ["DisjointBoxLayout", "decompose_domain"]


@dataclass(frozen=True)
class _Entry:
    index: int
    box: Box
    rank: int


class _HashedOnce(tuple):
    """A tuple that computes its content hash once."""

    def __hash__(self) -> int:
        h = self.__dict__.get("h")
        if h is None:
            h = self.__dict__["h"] = super().__hash__()
        return h


class DisjointBoxLayout:
    """An indexed set of disjoint boxes covering (part of) a domain.

    Parameters
    ----------
    domain:
        The problem domain the boxes live in.
    boxes:
        Disjoint cell-centred boxes.  Disjointness is verified.
    ranks:
        Optional rank assignment per box (defaults to round-robin over
        ``num_ranks``).
    num_ranks:
        Number of processes for the default round-robin assignment.
    """

    def __init__(
        self,
        domain: ProblemDomain,
        boxes: Sequence[Box],
        ranks: Sequence[int] | None = None,
        num_ranks: int = 1,
    ):
        if not boxes:
            raise ValueError("layout needs at least one box")
        for b in boxes:
            if b.is_empty:
                raise ValueError("layout boxes must be non-empty")
            if not domain.contains(b):
                raise ValueError(f"{b} not contained in domain {domain}")
        # An aligned grid of equal boxes with no block coordinate used
        # twice is disjoint by construction; only layouts without such
        # an index pay the pairwise sweep.
        self._grid_index = self._build_grid_index(domain, boxes)
        if self._grid_index is None:
            self._check_disjoint(boxes)
        if ranks is None:
            ranks = [i % max(1, num_ranks) for i in range(len(boxes))]
        if len(ranks) != len(boxes):
            raise ValueError("ranks must match boxes")
        self.domain = domain
        self._entries = [
            _Entry(i, b, r) for i, (b, r) in enumerate(zip(boxes, ranks))
        ]

    @staticmethod
    def _build_grid_index(domain: ProblemDomain, boxes: Sequence[Box]) -> dict | None:
        """Uniform-grid hash from block coordinates to layout index.

        Only built when every box has the same size, is aligned to a
        regular grid and no two boxes share a block coordinate (the
        common case from :func:`decompose_domain`).  Such boxes cannot
        overlap, so the index doubles as the disjointness proof, and it
        gives O(1) candidate lookup for exchange plan construction.
        ``coords`` lists the block coordinate of every box in layout
        order; ``counts`` is the per-axis block count when the boxes
        tile the whole domain, else ``None``.
        """
        size = boxes[0].size()
        origin = domain.box.lo.to_tuple()
        index: dict[tuple[int, ...], int] = {}
        coords: list[tuple[int, ...]] = []
        for b in boxes:
            if b.size() != size:
                return None
            offs = [l - o for l, o in zip(b.lo, origin)]
            if any(off % s for off, s in zip(offs, size)):
                return None
            coord = tuple(off // s for off, s in zip(offs, size))
            index[coord] = len(coords)
            coords.append(coord)
        if len(index) != len(boxes):
            return None
        counts, rest = zip(*map(divmod, domain.box.size(), size))
        if any(rest) or math.prod(counts) != len(boxes):
            counts = None
        return {
            "size": size, "origin": origin, "map": index,
            "coords": coords, "counts": counts,
        }

    def boxes_intersecting(self, region: Box) -> list[int]:
        """Layout indices of boxes intersecting ``region`` (unshifted)."""
        if region.is_empty:
            return []
        gi = self._grid_index
        if gi is None:
            return [
                e.index for e in self._entries if e.box.intersects(region)
            ]
        size, origin, index = gi["size"], gi["origin"], gi["map"]
        dim = region.dim
        los = [(region.lo[d] - origin[d]) // size[d] for d in range(dim)]
        his = [(region.hi[d] - origin[d]) // size[d] for d in range(dim)]
        out: list[int] = []

        def rec(d: int, coords: list[int]):
            if d == dim:
                idx = index.get(tuple(coords))
                if idx is not None:
                    out.append(idx)
                return
            for c in range(los[d], his[d] + 1):
                coords.append(c)
                rec(d + 1, coords)
                coords.pop()

        rec(0, [])
        return out

    def uniform_tiling(self) -> tuple | None:
        """``(box size, per-axis block counts, block coordinate per box)``.

        ``None`` unless equal aligned boxes cover the whole domain —
        the layouts whose exchange plan repeats up to translation.
        """
        gi = self._grid_index
        if gi is None or gi["counts"] is None:
            return None
        return gi["size"], gi["counts"], gi["coords"]

    @staticmethod
    def _check_disjoint(boxes: Sequence[Box]) -> None:
        # Sort by low corner so pairs apart along the first axis are
        # never compared; within one first-axis slab the sweep is
        # quadratic.  Reached only by layouts without a grid index.
        order = sorted(range(len(boxes)), key=lambda i: boxes[i].lo.to_tuple())
        for pos, i in enumerate(order):
            bi = boxes[i]
            for j in order[pos + 1:]:
                bj = boxes[j]
                if bj.lo[0] > bi.hi[0]:
                    break
                if bi.intersects(bj):
                    raise ValueError(f"boxes overlap: {bi} and {bj}")

    # -- container protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._entries)))

    def box(self, index: int) -> Box:
        """The box with the given layout index."""
        return self._entries[index].box

    def rank(self, index: int) -> int:
        """The process rank owning box ``index``."""
        return self._entries[index].rank

    @property
    def boxes(self) -> list[Box]:
        """All boxes in layout-index order."""
        return [e.box for e in self._entries]

    def boxes_on_rank(self, rank: int) -> list[int]:
        """Layout indices of boxes assigned to ``rank``."""
        return [e.index for e in self._entries if e.rank == rank]

    def num_ranks(self) -> int:
        """Number of distinct ranks used."""
        return len({e.rank for e in self._entries}) if self._entries else 0

    def total_cells(self) -> int:
        """Total cell count across all boxes."""
        return sum(e.box.num_points() for e in self._entries)

    def geometry_key(self) -> tuple:
        """Hashable rank-free content key: the domain and every box.

        Hashes its boxes once; :meth:`with_ranks` clones share it, so a
        rank sweep over one geometry never re-hashes the boxes.
        """
        gk = self.__dict__.get("_gkey")
        if gk is None:
            gk = _HashedOnce((self.domain, tuple(e.box for e in self._entries)))
            self.__dict__["_gkey"] = gk
        return gk

    def structure_key(self) -> tuple:
        """Hashable content key: equal keys mean interchangeable layouts.

        Covers everything exchange planning can observe — the domain
        (extent and periodicity), every box and its rank, in layout
        index order.  Two layouts with equal keys produce identical
        copy plans for any ghost width, which is what lets the copier
        cache share plans across independently constructed but
        content-equal layouts.
        """
        return (self.geometry_key(), tuple(e.rank for e in self._entries))

    def with_ranks(self, ranks: Sequence[int]) -> "DisjointBoxLayout":
        """A layout over the same boxes with a new rank assignment.

        Boxes were validated (disjointness, containment) when this
        layout was built and are immutable, so the copy skips the
        re-check (the grid index, or for an irregular layout the sweep
        that is quadratic within a coordinate slab) and rank sweeps
        over one geometry (the cluster scaling model re-ranks a layout
        once per node count) stay cheap.  The grid index and the
        geometry key are shared; only the rank half of the content key
        is new.
        """
        if len(ranks) != len(self._entries):
            raise ValueError("ranks must match boxes")
        clone = object.__new__(DisjointBoxLayout)
        clone.domain = self.domain
        clone._entries = [
            _Entry(e.index, e.box, int(r))
            for e, r in zip(self._entries, ranks)
        ]
        clone._grid_index = self._grid_index
        clone._gkey = self.geometry_key()
        return clone

    def neighbors(self, index: int, ghost: int) -> list[int]:
        """Indices of boxes whose data a ghost ring of width ``ghost`` touches.

        Accounts for periodic wrapping.  Excludes the box itself except
        via a periodic image (a box can be its own neighbour through the
        boundary on a domain one box wide).
        """
        grown = self.box(index).grow(ghost)
        zero = (0,) * self.domain.dim
        out: set[int] = set()
        for shift in self.domain.periodic_shifts(grown):
            for idx in self.boxes_intersecting(grown.shift_vect(shift)):
                if idx != index or shift.to_tuple() != zero:
                    out.add(idx)
        return sorted(out)

    def __repr__(self) -> str:
        return f"DisjointBoxLayout[{len(self)} boxes, {self.total_cells()} cells]"


def decompose_domain(
    domain: ProblemDomain,
    box_size: int | Sequence[int],
    num_ranks: int = 1,
    rank_assignment: str = "round_robin",
) -> DisjointBoxLayout:
    """Split a domain into equal boxes of ``box_size`` cells per direction.

    The domain extent must be divisible by the box size in every
    direction (as in the paper's benchmark, where the 512x384x256 cells
    split evenly into each tested box size).

    ``rank_assignment`` chooses how boxes map to ranks:

    * ``round_robin`` — cyclic (Chombo-style load balancing);
    * ``block`` — contiguous spatial blocks per rank along the slowest
      axis, minimizing off-rank ghost surface (what a production
      distributed run wants, used by the cluster model).
    """
    dbox = domain.box
    if isinstance(box_size, int):
        box_size = (box_size,) * dbox.dim
    bs = tuple(int(s) for s in box_size)
    for d in range(dbox.dim):
        if dbox.size(d) % bs[d] != 0:
            raise ValueError(
                f"domain size {dbox.size(d)} not divisible by box size {bs[d]} in dir {d}"
            )
    counts = [dbox.size(d) // bs[d] for d in range(dbox.dim)]
    boxes: list[Box] = []

    def rec(d: int, idx: list[int]):
        if d < 0:
            lo = IntVect(dbox.lo[k] + idx[k] * bs[k] for k in range(dbox.dim))
            boxes.append(Box.from_extents(lo.to_tuple(), bs))
            return
        for i in range(counts[d]):
            idx[d] = i
            rec(d - 1, idx)

    rec(dbox.dim - 1, [0] * dbox.dim)
    if rank_assignment == "round_robin":
        ranks = None
    elif rank_assignment == "block":
        # Boxes were generated with the last axis slowest; contiguous
        # index ranges are contiguous slabs of the domain.
        n = len(boxes)
        ranks = [min(i * num_ranks // n, num_ranks - 1) for i in range(n)]
    else:
        raise ValueError(f"unknown rank assignment {rank_assignment!r}")
    return DisjointBoxLayout(domain, boxes, ranks=ranks, num_ranks=num_ranks)
