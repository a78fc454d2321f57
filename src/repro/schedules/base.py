"""Schedule variant descriptors and the box-executor interface.

The paper (§IV) explores a design space of inter-loop schedules along
five axes.  :class:`Variant` is the point-in-space descriptor; every
concrete executor in this package realizes one category of variants and
is constructed from a ``Variant``.

Axes (paper §IV-A..D, §IV-E):

* ``category`` — ``series`` (original series of loops), ``shift_fuse``
  (loops shifted and fused), ``blocked_wavefront`` (shifted, fused, and
  tiled with wavefront parallelism), ``overlapped`` (overlapped /
  communication-avoiding tiles).
* ``granularity`` — ``P>=Box`` (parallelize over boxes; Chombo's MPI-
  everywhere analogue) or ``P<Box`` (parallelize within a box: z-slices,
  wavefront iterations, or tiles).
* ``component_loop`` — ``CLO`` (component loop outside the spatial
  loops) or ``CLI`` (inside).
* ``intra_tile`` — for overlapped tiles, the schedule inside each tile:
  ``basic`` (series of loops) or ``shift_fuse``.
* ``tile_size`` — 4, 8, 16, or 32, for the tiled categories.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "CATEGORIES",
    "GRANULARITIES",
    "COMPONENT_LOOPS",
    "INTRA_TILE",
    "TILE_SIZES",
    "Variant",
    "BoxExecutor",
]

CATEGORIES = ("series", "shift_fuse", "blocked_wavefront", "overlapped")
GRANULARITIES = ("P>=Box", "P<Box")
COMPONENT_LOOPS = ("CLO", "CLI")
#: The paper's intra-tile schedules, plus "wavefront" — hierarchical
#: overlapped tiling (Zhou et al. [50], §V), implemented here as the
#: extension the paper names as closest related work: outer overlapped
#: tiles run an inner blocked wavefront over sub-tiles.
INTRA_TILE = ("basic", "shift_fuse", "wavefront")
PAPER_INTRA_TILE = ("basic", "shift_fuse")
TILE_SIZES = (4, 8, 16, 32)


@dataclass(frozen=True)
class Variant:
    """One point in the schedule design space."""

    category: str
    granularity: str = "P>=Box"
    component_loop: str = "CLO"
    tile_size: int | None = None
    intra_tile: str | None = None
    #: Sub-tile edge for hierarchical overlapped tiling
    #: (``intra_tile="wavefront"`` only).
    inner_tile_size: int | None = None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.component_loop not in COMPONENT_LOOPS:
            raise ValueError(f"unknown component loop {self.component_loop!r}")
        tiled = self.category in ("blocked_wavefront", "overlapped")
        if tiled:
            if self.tile_size not in TILE_SIZES:
                raise ValueError(
                    f"{self.category} needs tile_size in {TILE_SIZES}, "
                    f"got {self.tile_size}"
                )
        elif self.tile_size is not None:
            raise ValueError(f"{self.category} takes no tile size")
        if self.category == "overlapped":
            if self.intra_tile not in INTRA_TILE:
                raise ValueError(
                    f"overlapped needs intra_tile in {INTRA_TILE}, "
                    f"got {self.intra_tile}"
                )
        elif self.intra_tile is not None:
            raise ValueError(f"{self.category} takes no intra_tile")
        if self.intra_tile == "wavefront":
            if (
                self.inner_tile_size is None
                or self.inner_tile_size >= self.tile_size
            ):
                raise ValueError(
                    "hierarchical overlapped tiling needs an inner tile "
                    "strictly smaller than the outer tile"
                )
        elif self.inner_tile_size is not None:
            raise ValueError("inner_tile_size requires intra_tile='wavefront'")

    # -- naming (the paper's legend labels) -----------------------------------------
    @property
    def label(self) -> str:
        """The paper's figure-legend style label."""
        g = self.granularity
        if self.category == "series":
            return f"Baseline: {g}"
        if self.category == "shift_fuse":
            return f"Shift-Fuse: {g}"
        if self.category == "blocked_wavefront":
            return f"Blocked WF-{self.component_loop}-{self.tile_size}: {g}"
        if self.intra_tile == "wavefront":
            return f"Hier-WF{self.inner_tile_size} OT-{self.tile_size}: {g}"
        intra = "Shift-Fuse" if self.intra_tile == "shift_fuse" else "Basic-Sched"
        return f"{intra} OT-{self.tile_size}: {g}"

    @property
    def short_name(self) -> str:
        """Compact machine-friendly identifier."""
        parts = [self.category, self.granularity.replace(">=", "ge").replace("<", "lt"),
                 self.component_loop.lower()]
        if self.tile_size is not None:
            parts.append(f"t{self.tile_size}")
        if self.intra_tile is not None:
            parts.append(self.intra_tile)
        if self.inner_tile_size is not None:
            parts.append(f"i{self.inner_tile_size}")
        return "-".join(parts)

    @property
    def is_tiled(self) -> bool:
        return self.tile_size is not None

    def applicable_to_box(self, n: int) -> bool:
        """Tile sizes were only used for boxes strictly larger (§IV-E)."""
        if self.tile_size is None:
            return True
        return self.tile_size < n

    def structure_key(
        self, box_size: int, ncomp: int = 5, dim: int = 3, ghost: int = 2
    ) -> tuple:
        """Canonical hash of the per-box task-graph structure.

        Two (variant, box) configurations with equal keys produce
        identical per-box phases/items — the memoization key for the
        task-graph caches in :mod:`repro.machine.workload`.  Only the
        semantic axes participate: ``granularity`` is dropped (it decides
        how boxes map to phases at the *level*, not what one box's task
        graph looks like), as is any field the category ignores (the
        ``Variant`` validator already forces those to ``None``).
        """
        return (
            self.category,
            self.component_loop,
            self.tile_size,
            self.intra_tile,
            self.inner_tile_size,
            int(box_size),
            int(ncomp),
            int(dim),
            int(ghost),
        )

    def __str__(self) -> str:
        return self.label


class BoxExecutor(abc.ABC):
    """Executes the exemplar kernel on a single box under one schedule.

    Contract
    --------
    ``run(phi_g, phi1)`` takes the ghosted input ``phi_g`` of shape
    ``(N+2g)^dim + (C,)`` (ghosts filled) and accumulates the flux
    divergence into ``phi1`` of shape ``N^dim + (C,)`` (pre-filled with
    the valid phi0 data).  The result must be **bitwise identical** to
    :func:`repro.exemplar.reference.reference_kernel`.
    """

    def __init__(self, variant: Variant, dim: int = 3, ncomp: int = 5):
        if ncomp <= dim:
            raise ValueError(f"ncomp ({ncomp}) must exceed dim ({dim})")
        self.variant = variant
        self.dim = dim
        self.ncomp = ncomp

    @abc.abstractmethod
    def run(self, phi_g: np.ndarray, phi1: np.ndarray) -> None:
        """Accumulate the kernel's flux divergence into ``phi1``."""

    @abc.abstractmethod
    def logical_temporaries(self, n: int) -> dict[str, int]:
        """Per-thread live temporary elements, keyed ``flux``/``velocity``.

        These are the quantities Table I tabulates.  They describe the
        *schedule*, independent of the vectorized realization (which may
        batch a whole plane or tile per call; the instrumented-allocation
        tests bound the realization against these numbers).
        """

    def run_fresh(self, phi_g: np.ndarray) -> np.ndarray:
        """Convenience: allocate phi1 from the valid ghosted data and run."""
        g = self._ghost_of(phi_g)
        interior = tuple(slice(g, -g) for _ in range(self.dim)) + (slice(None),)
        phi1 = phi_g[interior].copy(order="F")
        self.run(phi_g, phi1)
        return phi1

    def _ghost_of(self, phi_g: np.ndarray) -> int:
        from ..stencil.operators import FACE_INTERP_GHOST

        return FACE_INTERP_GHOST

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.variant.label}]"
