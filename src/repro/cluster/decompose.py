"""Rank-level domain decomposition over the box substrate.

Boxes are the coarsest grain of parallelism (§II of the paper); a rank
decomposition assigns every box of a :class:`DisjointBoxLayout` to one
simulated rank.  Three policies:

``round_robin``
    Boxes dealt cyclically (the seed substrate's default) — perfect
    box-count balance, worst-case communication surface.
``block``
    Contiguous runs of the box ordering (last axis slowest) — slab-like
    ranks, the seed ``step_cost`` behaviour.
``surface``
    Surface-minimizing: factor the rank count into a near-cubic rank
    grid and map box-grid coordinates proportionally, so each rank owns
    a compact sub-block and the off-rank surface (hence halo traffic)
    is near minimal.

All policies conserve boxes and cells exactly — every box lands on
exactly one rank — which the ``cluster`` verify family asserts.

Scaling sweeps revisit one geometry under many rank counts, so the
box-grid layout (validated once: containment per box, disjointness
through the grid index in O(n)) is built once per geometry and re-ranked
cheaply through :meth:`DisjointBoxLayout.with_ranks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..box.box import Box
from ..box.layout import DisjointBoxLayout, decompose_domain
from ..box.problem_domain import ProblemDomain
from ..util.cache import BoundedCache

__all__ = [
    "POLICIES",
    "RankDecomposition",
    "decompose_ranks",
    "rank_grid",
    "surface_rank_map",
]

POLICIES = ("round_robin", "block", "surface")

# One validated box-grid layout per geometry; rank maps are applied on
# top via with_ranks.
_BASE_CACHE = BoundedCache("base_layout_cache", 32)
_RANK_GRID_CACHE = BoundedCache("rank_grid_cache", 512)


def _base_layout(
    domain_cells: tuple[int, ...],
    box_size: int,
    periodic: tuple[bool, ...] | None,
) -> DisjointBoxLayout:
    def build() -> DisjointBoxLayout:
        dbox = Box.from_extents((0,) * len(domain_cells), domain_cells)
        kwargs = {} if periodic is None else {"periodic": periodic}
        domain = ProblemDomain(dbox, **kwargs)
        return decompose_domain(domain, box_size, num_ranks=1)

    return _BASE_CACHE.get_or_build((domain_cells, box_size, periodic), build)


def rank_grid(num_ranks: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    """Factor ``num_ranks`` into a rank grid over a box grid ``counts``.

    Picks the factorization ``g`` (``prod(g) == num_ranks``) minimizing
    the estimated per-rank surface ``sum(g[d] / counts[d])`` — i.e. the
    most cubic sub-blocks in units of boxes — among factorizations that
    fit (``g[d] <= counts[d]``).  Returns ``()`` when no factorization
    fits (the caller falls back to a proportional block split).
    """
    return _RANK_GRID_CACHE.get_or_build(
        (num_ranks, counts), lambda: _factor_rank_grid(num_ranks, counts)
    )


def _factor_rank_grid(num_ranks: int, counts: tuple[int, ...]) -> tuple[int, ...]:
    dim = len(counts)
    best: tuple[int, ...] = ()
    best_cost = float("inf")

    def rec(remaining: int, axis: int, partial: tuple[int, ...]):
        nonlocal best, best_cost
        if axis == dim - 1:
            if remaining <= counts[axis]:
                g = partial + (remaining,)
                cost = sum(g[d] / counts[d] for d in range(dim))
                if cost < best_cost:
                    best, best_cost = g, cost
            return
        f = 1
        while f <= remaining and f <= counts[axis]:
            if remaining % f == 0:
                rec(remaining // f, axis + 1, partial + (f,))
            f += 1

    rec(num_ranks, 0, ())
    return best


def surface_rank_map(
    base: DisjointBoxLayout, box_size: int, num_ranks: int
) -> list[int]:
    """Surface-minimizing box -> rank map over the uniform box grid.

    ``base`` is in :func:`decompose_domain` order (first axis fastest,
    last slowest), as every layout this module builds is.
    """
    domain = base.domain
    counts = tuple(
        domain.box.size(d) // box_size for d in range(domain.dim)
    )
    grid = rank_grid(num_ranks, counts)
    n = len(base)
    if not grid:
        # No rank grid fits (e.g. a prime rank count larger than every
        # axis): fall back to the contiguous block split, which is
        # always well defined.
        return [min(i * num_ranks // n, num_ranks - 1) for i in range(n)]
    # A box's rank is the flattened rank-grid coordinate (last axis
    # slowest, matching the box ordering), a sum of one term per axis:
    # tabulate each axis' term and add them up in box order.
    ranks = [0]
    stride = 1
    for g, m in zip(grid, counts):
        terms = [min(c * g // m, g - 1) * stride for c in range(m)]
        ranks = [r + t for t in terms for r in ranks]
        stride *= g
    return ranks


@dataclass(frozen=True)
class RankDecomposition:
    """A rank-assigned layout plus the policy that produced it."""

    layout: DisjointBoxLayout
    num_ranks: int
    policy: str

    def boxes_per_rank(self) -> list[int]:
        return self._per_rank(lambda i: 1)

    def cells_per_rank(self) -> list[int]:
        return self._per_rank(lambda i: self.layout.box(i).num_points())

    def _per_rank(self, weight) -> list[int]:
        out = [0] * self.num_ranks
        for i in self.layout:
            out[self.layout.rank(i)] += weight(i)
        return out

    def total_boxes(self) -> int:
        return len(self.layout.boxes)

    def total_cells(self) -> int:
        return self.layout.total_cells()


def decompose_ranks(
    domain_cells: Sequence[int],
    box_size: int,
    num_ranks: int,
    policy: str = "surface",
    periodic: Sequence[bool] | None = None,
) -> RankDecomposition:
    """Decompose a uniform domain into boxes and assign them to ranks."""
    if num_ranks <= 0:
        raise ValueError("num_ranks must be positive")
    num_boxes = 1
    for c in domain_cells:
        if c % box_size:
            raise ValueError("domain must divide by the box size")
        num_boxes *= c // box_size
    if num_ranks > num_boxes:
        raise ValueError(
            f"{num_ranks} ranks exceed the {num_boxes} boxes available"
        )
    base = _base_layout(
        tuple(int(c) for c in domain_cells),
        int(box_size),
        None if periodic is None else tuple(bool(p) for p in periodic),
    )
    n = num_boxes
    if policy == "surface":
        ranks = surface_rank_map(base, int(box_size), num_ranks)
    elif policy == "round_robin":
        ranks = [i % num_ranks for i in range(n)]
    elif policy == "block":
        # Boxes are generated with the last axis slowest; contiguous
        # index ranges are contiguous slabs of the domain.
        ranks = [min(i * num_ranks // n, num_ranks - 1) for i in range(n)]
    else:
        raise ValueError(f"unknown policy {policy!r} (known: {', '.join(POLICIES)})")
    layout = base if num_ranks == 1 else base.with_ranks(ranks)
    return RankDecomposition(layout=layout, num_ranks=num_ranks, policy=policy)
