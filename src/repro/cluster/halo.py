"""Per-rank halo-exchange volumes from the real copier plans.

The seed cluster model approximated exchange volume with the closed-form
ghost ring scaled by pair fractions from a shrunken proxy layout.  This
module derives it from the *actual* exchange plan instead: the
:class:`~repro.box.copier.ExchangeCopier` enumerates every ghost copy
(periodic images included), and the halo plan folds those copies per
rank — points a rank sends off-node, points it receives, which peer
ranks it talks to, and how many messages that costs (one aggregated
message per neighbor rank per exchange, as an MPI implementation packs
them).

The work is split in two so each half is cached on what it depends on
(:mod:`repro.util.cache`): a rank-free *geometry tally* of per box-pair
point counts (:func:`repro.box.copier.pair_points` — the copier's plan
rows, counted without materialising a copy item), and the per-rank
*plan* folded from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..box.copier import pair_points
from ..box.layout import DisjointBoxLayout
from ..util.cache import BoundedCache

__all__ = ["HaloPlan", "RankHalo", "clear_halo_cache", "halo_plan"]


@dataclass(frozen=True)
class RankHalo:
    """One rank's share of the exchange: volumes, peers, messages."""

    rank: int
    send_points: int  #: points this rank sends to other ranks
    recv_points: int  #: points this rank receives from other ranks
    local_points: int  #: ghost points filled by on-rank copies
    neighbors: tuple[int, ...]  #: peer ranks exchanged with (sorted)

    @property
    def messages(self) -> int:
        """Messages sent per exchange (one aggregated per neighbor)."""
        return len(self.neighbors)


@dataclass(frozen=True)
class HaloPlan:
    """Folded per-rank exchange volumes for one layout + ghost width."""

    ghost: int
    ranks: tuple[RankHalo, ...]
    total_points: int  #: all ghost points copied (on-rank + off-rank)
    off_rank_points: int  #: points crossing a rank boundary

    def rank(self, r: int) -> RankHalo:
        return self.ranks[r]

    def off_rank_bytes(self, ncomp: int, itemsize: int = 8) -> int:
        """Bytes crossing rank boundaries per exchange (counted once)."""
        return self.off_rank_points * ncomp * itemsize

    def bytes_per_exchange(self, ncomp: int, itemsize: int = 8) -> int:
        """Total bytes one exchange copies (matches the copier's figure)."""
        return self.total_points * ncomp * itemsize

    def total_messages(self) -> int:
        return sum(r.messages for r in self.ranks)


# Geometry tally: (domain, boxes, ghost) -> {(src_box, dst_box): points}.
# Rank-free on purpose — strong-scaling sweeps refold one geometry under
# many rank assignments without rebuilding the copier.
_TALLY_CACHE = BoundedCache("halo_tally_cache", 64)
# Folded plans: (layout.structure_key(), ghost) -> HaloPlan.
_PLAN_CACHE = BoundedCache("halo_cache", 256)


def _pair_tally(layout: DisjointBoxLayout, ghost: int) -> dict[tuple[int, int], int]:
    return _TALLY_CACHE.get_or_build(
        (layout.geometry_key(), int(ghost)),
        lambda: pair_points(layout, ghost),
    )


def _fold(layout: DisjointBoxLayout, ghost: int) -> HaloPlan:
    tally = _pair_tally(layout, ghost)
    rank_of = [layout.rank(i) for i in layout]
    nranks = max(rank_of, default=-1) + 1
    send = [0] * nranks
    recv = [0] * nranks
    local = [0] * nranks
    peers: list[set[int]] = [set() for _ in range(nranks)]
    total = 0
    off_rank = 0
    for (src, dst), points in tally.items():
        total += points
        rs, rd = rank_of[src], rank_of[dst]
        if rs == rd:
            local[rs] += points
        else:
            off_rank += points
            send[rs] += points
            recv[rd] += points
            peers[rs].add(rd)
            peers[rd].add(rs)
    ranks = tuple(
        RankHalo(
            rank=r,
            send_points=send[r],
            recv_points=recv[r],
            local_points=local[r],
            neighbors=tuple(sorted(peers[r])),
        )
        for r in range(nranks)
    )
    return HaloPlan(
        ghost=int(ghost),
        ranks=ranks,
        total_points=total,
        off_rank_points=off_rank,
    )


def halo_plan(layout: DisjointBoxLayout, ghost: int) -> HaloPlan:
    """The cached per-rank halo plan for (layout content, ghost width).

    Totals agree exactly with the copier the plan is derived from:
    ``plan.total_points == ExchangeCopier(layout, ghost).total_ghost_points()``
    and ``plan.off_rank_points == copier.off_rank_points()``.
    """
    if ghost < 0:
        raise ValueError(f"ghost width must be >= 0, got {ghost}")
    return _PLAN_CACHE.get_or_build(
        (layout.structure_key(), int(ghost)), lambda: _fold(layout, ghost)
    )


def clear_halo_cache() -> None:
    """Drop the geometry tallies and folded plans."""
    _TALLY_CACHE.clear()
    _PLAN_CACHE.clear()
