"""Workload construction: a schedule variant becomes barrier phases of work items.

Every schedule in the study has barrier-synchronized structure:

* ``P>=Box`` — one phase holding every box (boxes are independent);
* ``P<Box`` series / shift-fuse / overlapped — boxes run one after
  another (the parallel loop is inside the box), each box one phase of
  slice/tile items;
* ``P<Box`` blocked wavefront — each wavefront of each box is a phase
  (the wavefront barrier), tiles within a wavefront are the items.

Items carry flops and a cache-dependent :class:`TrafficModel`; identical
items are stored as (item, count) groups so paper-scale workloads
(hundreds of thousands of tiles) stay cheap to build and analyse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from ..analysis.flops import region_flops, variant_box_flops
from ..analysis.traffic import TrafficModel, variant_traffic
from ..box.box import Box
from ..exemplar.problem import PAPER_DOMAIN_CELLS
from ..schedules.base import Variant
from ..schedules.tiling import TileGrid
from ..util.cache import BoundedCache

__all__ = [
    "WorkItem",
    "Phase",
    "Workload",
    "build_workload",
    "clear_workload_cache",
]


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: arithmetic plus a traffic model."""

    label: str
    flops: float
    traffic: TrafficModel

    @cached_property
    def structure_key(self) -> tuple:
        """Hashable content key determining this item's cost exactly.

        Two items with equal keys get identical (compute time, DRAM
        bytes) on any machine at any thread count — the basis for the
        phase-cost memoization in the simulator.  Computed once; the
        traffic model must not be mutated afterwards (workload items
        never are).
        """
        return (self.flops, self.traffic.structure_key())


@dataclass
class Phase:
    """Items between two barriers, as (item, count) groups."""

    label: str
    groups: list[tuple[WorkItem, int]] = field(default_factory=list)

    def add(self, item: WorkItem, count: int = 1) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.groups.append((item, count))
        for k in ("_skey", "_merged", "_ckey"):
            self.__dict__.pop(k, None)

    def structure_key(self) -> tuple:
        """Content key for the phase: ((item key, count), ...).

        Structural, not identity-based: two phases with equal keys have
        identical cost regardless of which objects realize them, and a
        recycled ``id()`` can never cause a false hit (the bug the old
        ``tuple(id(g) for g in groups)`` memo key had).  Cached until
        the next :meth:`add`.
        """
        sk = self.__dict__.get("_skey")
        if sk is None:
            sk = tuple((item.structure_key, count) for item, count in self.groups)
            self.__dict__["_skey"] = sk
        return sk

    def merged_groups(self) -> list[tuple[WorkItem, int]]:
        """Groups merged by item content (first item kept), sorted by key.

        The closed form ignores group order and splitting, so a phase of
        one item split over several groups is *uniform*, and phases with
        equal :meth:`cost_key` merge alike.  Cached until the next
        :meth:`add`.
        """
        mg = self.__dict__.get("_merged")
        if mg is None:
            merged: dict[tuple, list] = {}
            for item, count in self.groups:
                rec = merged.get(item.structure_key)
                if rec is None:
                    merged[item.structure_key] = [item, count]
                else:
                    rec[1] += count
            mg = [tuple(merged[k]) for k in sorted(merged)]
            self.__dict__["_merged"] = mg
        return mg

    def cost_key(self) -> tuple:
        """Canonical closed-form cost key: :meth:`merged_groups` as
        ((item key, count), ...).

        Two wavefront phases holding the same tile-shape multiset in
        different insertion orders (e.g. the front and back wavefronts
        of a symmetric box) share one entry.  The event-driven simulator
        must NOT use this key: its queue order follows group order.
        """
        ck = self.__dict__.get("_ckey")
        if ck is None:
            ck = tuple((i.structure_key, c) for i, c in self.merged_groups())
            self.__dict__["_ckey"] = ck
        return ck

    @property
    def num_items(self) -> int:
        return sum(c for _, c in self.groups)

    def total_flops(self) -> float:
        return sum(i.flops * c for i, c in self.groups)


@dataclass
class Workload:
    """The full level computation as an ordered list of barrier phases.

    ``phases`` is the authoritative expanded sequence.  Builders that
    repeat a per-box cycle of phases store the compression in
    ``segments`` — ``[(cycle, repeat), ...]`` where each cycle is a
    tuple of phases and ``phases`` equals the concatenated expansion
    (with *shared* ``Phase`` objects, not copies) — so the simulator can
    cost each distinct cycle once and replay it ``repeat`` times.
    Hand-built workloads leave ``segments`` as ``None`` and are treated
    as one cycle repeated once.
    """

    variant: Variant
    box_size: int
    num_boxes: int
    ncomp: int
    dim: int
    phases: list[Phase] = field(default_factory=list)
    segments: list[tuple[tuple[Phase, ...], int]] | None = None

    def phase_runs(self) -> list[tuple[tuple[Phase, ...], int]]:
        """(cycle of phases, repeat count) runs expanding to ``phases``."""
        if self.segments:
            return self.segments
        return [(tuple(self.phases), 1)] if self.phases else []

    @property
    def total_cells(self) -> int:
        return self.num_boxes * self.box_size**self.dim

    def total_flops(self) -> float:
        return sum(p.total_flops() for p in self.phases)

    def total_items(self) -> int:
        return sum(p.num_items for p in self.phases)

    def max_phase_width(self) -> int:
        return max((p.num_items for p in self.phases), default=0)


def _num_boxes(domain_cells: Sequence[int], box_size: int) -> int:
    n = 1
    for c in domain_cells:
        if c % box_size != 0:
            raise ValueError(
                f"domain extent {c} not divisible by box size {box_size}"
            )
        n *= c // box_size
    return n


#: Memoized workloads.  Building one is pure geometry — (variant, box
#: size, domain, ncomp, dim) determines every phase and item — but for
#: tiled variants it walks the full tile grid, which dominated the
#: figure-suite profile.  Callers receive a shared instance and must
#: treat it as immutable (every in-tree consumer does).
_WORKLOAD_CACHE = BoundedCache("workload_cache", 512)


def clear_workload_cache() -> None:
    """Drop every memoized workload and phase cycle (tests, memory)."""
    _WORKLOAD_CACHE.clear()
    _BOX_CYCLE_CACHE.clear()


def build_workload(
    variant: Variant,
    box_size: int,
    domain_cells: Sequence[int] = PAPER_DOMAIN_CELLS,
    ncomp: int = 5,
    dim: int = 3,
) -> Workload:
    """Phases + items for running ``variant`` over the whole level.

    Results are memoized process-wide; the returned workload is shared
    and must not be mutated.
    """
    key = (
        variant,
        int(box_size),
        tuple(int(c) for c in domain_cells),
        int(ncomp),
        int(dim),
    )
    return _WORKLOAD_CACHE.get_or_build(
        key, lambda: _build_workload(variant, box_size, domain_cells, ncomp, dim)
    )


#: Memoized per-box phase cycles, keyed on the canonical task-graph
#: structure hash (:meth:`repro.schedules.base.Variant.structure_key`).
#: A P<Box box's phase cycle is domain-independent — the domain only
#: sets how many times the cycle repeats — so grid sweeps over many
#: domains (and the served/tuned paths) replay one cached structure.
#: The cached phases are shared, never copied: their ``structure_key``
#: is computed once ever, which is what makes replaying a
#: 12288-box workload free.
_BOX_CYCLE_CACHE = BoundedCache("box_cycle_cache", 512)


def _box_phase_cycle(variant: Variant, n: int, ncomp: int, dim: int) -> tuple[Phase, ...]:
    """The barrier phases one P<Box box contributes, memoized."""
    return _BOX_CYCLE_CACHE.get_or_build(
        variant.structure_key(n, ncomp, dim),
        lambda: _build_box_phase_cycle(variant, n, ncomp, dim),
    )


def _build_box_phase_cycle(
    variant: Variant, n: int, ncomp: int, dim: int
) -> tuple[Phase, ...]:
    box_traffic = variant_traffic(variant, n, ncomp=ncomp, dim=dim)
    box_flops = variant_box_flops(variant, n, ncomp=ncomp, dim=dim).total
    cells = n**dim

    if variant.category in ("series", "shift_fuse"):
        # z-slices (series) / wavefronted fused planes (shift-fuse):
        # n units per box, each 1/n of the box's work.
        item = WorkItem(f"slice-{n}", box_flops / n, box_traffic.scaled(1.0 / n))
        per_box = Phase("slices")
        per_box.add(item, n)
        cycle = (per_box,)
    elif variant.category == "overlapped":
        grid = TileGrid(Box.cube(n, dim), variant.tile_size)
        per_box = Phase("tiles")
        for shape, count in grid.shape_counts().items():
            tcells = 1
            for s in shape:
                tcells *= s
            per_box.add(
                WorkItem(
                    f"ot-tile-{shape}",
                    region_flops(shape, ncomp).total,
                    box_traffic.scaled(tcells / cells),
                ),
                count,
            )
        cycle = (per_box,)
    else:
        # Blocked wavefront: one phase per wavefront per box; item
        # groups come from the analytic per-wavefront shape counts.
        grid = TileGrid(Box.cube(n, dim), variant.tile_size)
        tile_shapes: dict[tuple[int, ...], WorkItem] = {}
        box_phases: list[Phase] = []
        for w, counts in enumerate(grid.wavefront_shape_counts()):
            phase = Phase(f"wavefront-{w}")
            for shape, count in counts.items():
                if shape not in tile_shapes:
                    tcells = 1
                    for s in shape:
                        tcells *= s
                    tile_shapes[shape] = WorkItem(
                        f"wf-tile-{shape}",
                        box_flops * tcells / cells,
                        box_traffic.scaled(tcells / cells),
                    )
                phase.add(tile_shapes[shape], count)
            box_phases.append(phase)
        cycle = tuple(box_phases)
    return cycle


def _build_workload(
    variant: Variant,
    box_size: int,
    domain_cells: Sequence[int],
    ncomp: int,
    dim: int,
) -> Workload:
    if not variant.applicable_to_box(box_size):
        raise ValueError(
            f"{variant.label} not applicable to box size {box_size} "
            f"(tile must be strictly smaller)"
        )
    if len(domain_cells) != dim:
        raise ValueError("domain_cells must match dim")
    n = box_size
    num_boxes = _num_boxes(domain_cells, n)
    wl = Workload(variant, n, num_boxes, ncomp, dim)

    if variant.granularity == "P>=Box":
        box_traffic = variant_traffic(variant, n, ncomp=ncomp, dim=dim)
        box_flops = variant_box_flops(variant, n, ncomp=ncomp, dim=dim).total
        phase = Phase("boxes")
        phase.add(WorkItem(f"box-{n}", box_flops, box_traffic), num_boxes)
        wl.phases.append(phase)
        wl.segments = [((phase,), 1)]
        return wl

    # P<Box: boxes sequential, parallelism inside each box.  Every box
    # repeats one shared phase cycle; ``phases`` holds repeated
    # references (the barrier structure), not per-box copies.
    cycle = _box_phase_cycle(variant, n, ncomp, dim)
    wl.phases = list(cycle) * num_boxes
    wl.segments = [(cycle, num_boxes)]
    return wl
