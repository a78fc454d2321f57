"""Benchmark problem setup (paper §III-C).

The paper's benchmark holds 50,331,648 total cells — a 512×384×256
domain — divided into 12,288 boxes of 16³, 1,536 of 32³, 192 of 64³, or
24 of 128³, with 5 components and a 2-cell ghost ring, fully periodic.
:class:`ExemplarProblem` reproduces that construction at any scale so
tests can run the same code on tiny domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..box.box import Box
from ..box.layout import DisjointBoxLayout, decompose_domain
from ..box.leveldata import LevelData
from ..box.problem_domain import ProblemDomain
from ..stencil.operators import FACE_INTERP_GHOST
from .state import NCOMP, smooth_initial_data

__all__ = ["ExemplarProblem", "PAPER_DOMAIN_CELLS", "PAPER_BOX_SIZES", "PAPER_TOTAL_CELLS"]

#: The paper's global domain (512·384·256 = 50,331,648 cells).
PAPER_DOMAIN_CELLS = (512, 384, 256)

#: Box sizes the paper evaluates.
PAPER_BOX_SIZES = (16, 32, 64, 128)

#: Total cells in the paper's benchmark.
PAPER_TOTAL_CELLS = 50_331_648


@dataclass
class ExemplarProblem:
    """A benchmark instance: domain, decomposition, and state construction.

    Parameters
    ----------
    domain_cells:
        Global domain extent per direction.
    box_size:
        Cube box edge length (must divide every domain extent).
    ncomp:
        State components (paper: 5).
    ghost:
        Ghost-ring width (paper: 2, from the 4th-order stencil).
    num_ranks:
        Ranks for the layout's round-robin assignment (affects only
        comm-volume accounting, not numerics).
    """

    domain_cells: Sequence[int] = PAPER_DOMAIN_CELLS
    box_size: int = 128
    ncomp: int = NCOMP
    ghost: int = FACE_INTERP_GHOST
    num_ranks: int = 1
    _layout: DisjointBoxLayout | None = field(default=None, repr=False)

    def __post_init__(self):
        self.domain_cells = tuple(int(c) for c in self.domain_cells)
        dim = len(self.domain_cells)
        if self.ncomp <= dim:
            raise ValueError(
                f"ncomp ({self.ncomp}) must exceed dimension ({dim})"
            )

    @property
    def dim(self) -> int:
        return len(self.domain_cells)

    @property
    def domain(self) -> ProblemDomain:
        """Fully periodic problem domain."""
        return ProblemDomain(
            Box.from_extents((0,) * self.dim, self.domain_cells)
        )

    @property
    def layout(self) -> DisjointBoxLayout:
        """The (cached) disjoint box layout."""
        if self._layout is None:
            self._layout = decompose_domain(
                self.domain, self.box_size, num_ranks=self.num_ranks
            )
        return self._layout

    def num_boxes(self) -> int:
        return len(self.layout)

    def total_cells(self) -> int:
        return self.layout.total_cells()

    def make_phi0(self, exchange: bool = True) -> LevelData:
        """Initial state with ghosts, optionally already exchanged."""
        phi0 = LevelData(self.layout, ncomp=self.ncomp, ghost=self.ghost)
        phi0.fill_from_function(self._initial_fn)
        if exchange:
            phi0.exchange()
        return phi0

    def _initial_fn(self, *grids_and_comp):
        *grids, comp = grids_and_comp
        if self.dim == 3:
            return smooth_initial_data(*grids, comp)
        # Lower/higher dimensions: collapse onto the 3D profile.
        x = grids[0]
        y = grids[1] if self.dim > 1 else 0 * x
        z = grids[2] if self.dim > 2 else 0 * x
        return smooth_initial_data(x, y, z, comp)

    @staticmethod
    def paper_instance(box_size: int, num_ranks: int = 1) -> "ExemplarProblem":
        """The paper's exact benchmark configuration for one box size."""
        if box_size not in PAPER_BOX_SIZES:
            raise ValueError(f"paper used box sizes {PAPER_BOX_SIZES}")
        return ExemplarProblem(
            PAPER_DOMAIN_CELLS, box_size=box_size, num_ranks=num_ranks
        )
