"""Work partitioning for real shared-memory execution.

Decomposes a (variant, level) pair into callables the thread pool can
run, preserving each schedule's synchronization structure:

* ``P>=Box`` — one task per box, all concurrent;
* ``P<Box`` overlapped — one task per tile, concurrent within a box;
* ``P<Box`` blocked wavefront — tiles grouped by wavefront, barrier
  between wavefronts;
* ``P<Box`` series — the paper's actual scheme (OpenMP pragmas on the
  face/cell loops of Fig. 6): per direction, three barrier groups —
  EvalFlux1 over z-chunks of a *shared* flux array, EvalFlux2 over
  z-chunks, accumulation over z-chunks — so the temporaries are shared
  exactly like the original code;
* ``P<Box`` shift-fuse — z-slab tasks.  The fused rolling caches do not
  share across slices; re-running the fused executor per slab
  recomputes the slab-boundary z-fluxes (identical expressions, so
  results stay bitwise equal), which makes the slabs fully independent
  — the wavefront-of-iterations analogue.

Every callable writes a disjoint region of phi1 and only reads phi0, so
tasks within a group are race-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..box.box import Box
from ..box.leveldata import LevelData
from ..schedules.base import BoxExecutor, Variant
from ..schedules.shift_fuse import compute_velocities
from ..schedules.tiling import TileGrid
from ..schedules.variants import make_executor
from ..schedules.wavefront import BlockedWavefrontExecutor
from ..stencil.operators import FACE_INTERP_GHOST

__all__ = ["TaskGroup", "ParallelPlan", "build_plan"]

_G = FACE_INTERP_GHOST


@dataclass
class TaskGroup:
    """Callables that may run concurrently; groups are barriers."""

    label: str
    tasks: list[Callable[[], None]] = field(default_factory=list)


@dataclass
class ParallelPlan:
    """Ordered barrier groups realizing one schedule over a level."""

    variant: Variant
    groups: list[TaskGroup] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return sum(len(g.tasks) for g in self.groups)

    def max_group_width(self) -> int:
        return max((len(g.tasks) for g in self.groups), default=0)


def _region_views(phi0: LevelData, phi1: LevelData, i: int, dim: int):
    box = phi0.layout.box(i)
    return phi0[i].window(box.grow(_G)), phi1[i].window(box)


def _slab_task(executor: BoxExecutor, phi_g, phi1_box, z0: int, z1: int, dim: int):
    """A z-slab task: run the inner executor on the slab's grown view."""
    last = dim - 1
    gsl = tuple(
        slice(None) if ax != last else slice(z0, z1 + 2 * _G)
        for ax in range(dim)
    ) + (slice(None),)
    psl = tuple(
        slice(None) if ax != last else slice(z0, z1) for ax in range(dim)
    ) + (slice(None),)

    def run():
        executor.run(phi_g[gsl], phi1_box[psl])

    return run


def build_plan(
    variant: Variant, phi0: LevelData, phi1: LevelData, slabs_per_box: int | None = None
) -> ParallelPlan:
    """Build the barrier-group plan for one schedule over one level."""
    dim = phi0.layout.domain.dim
    ncomp = phi0.ncomp
    plan = ParallelPlan(variant)
    executor = make_executor(variant, dim=dim, ncomp=ncomp)

    if variant.granularity == "P>=Box":
        group = TaskGroup("boxes")
        for i in phi0.layout:
            phi_g, out = _region_views(phi0, phi1, i, dim)
            group.tasks.append(
                (lambda ex, a, b: lambda: ex.run(a, b))(executor, phi_g, out)
            )
        plan.groups.append(group)
        return plan

    # P<Box: one barrier group (or wavefront sequence) per box.
    for i in phi0.layout:
        phi_g, out = _region_views(phi0, phi1, i, dim)
        box = phi0.layout.box(i)
        n_last = box.size(dim - 1)
        if variant.category == "series":
            k = slabs_per_box or n_last
            k = max(1, min(k, n_last))
            plan.groups.extend(
                _series_shared_groups(
                    phi_g, out, i, dim, ncomp,
                    clo=variant.component_loop == "CLO", chunks=k,
                )
            )
        elif variant.category == "shift_fuse":
            k = slabs_per_box or n_last
            k = max(1, min(k, n_last))
            bounds = np.linspace(0, n_last, k + 1, dtype=int)
            group = TaskGroup(f"box{i}-slabs")
            for a, b in zip(bounds[:-1], bounds[1:]):
                if b > a:
                    group.tasks.append(
                        _slab_task(executor, phi_g, out, int(a), int(b), dim)
                    )
            plan.groups.append(group)
        elif variant.category == "overlapped":
            local = Box.from_extents((0,) * dim, out.shape[:-1])
            grid = TileGrid(local, variant.tile_size)
            group = TaskGroup(f"box{i}-tiles")
            for tb in grid:
                gsl = tuple(
                    slice(tb.lo[ax], tb.hi[ax] + 1 + 2 * _G) for ax in range(dim)
                ) + (slice(None),)
                psl = tuple(
                    slice(tb.lo[ax], tb.hi[ax] + 1) for ax in range(dim)
                ) + (slice(None),)
                inner = executor._inner
                group.tasks.append(
                    (lambda ex, a, b: lambda: ex.run(a, b))(
                        inner, phi_g[gsl], out[psl]
                    )
                )
            plan.groups.append(group)
        elif variant.category == "blocked_wavefront":
            plan.groups.extend(
                _wavefront_groups(executor, phi_g, out, i, dim, ncomp)
            )
        else:  # pragma: no cover - guarded by Variant validation
            raise ValueError(f"unknown category {variant.category!r}")
    return plan


def _series_shared_groups(
    phi_g, phi1_box, box_index: int, dim: int, ncomp: int, clo: bool, chunks: int
) -> list[TaskGroup]:
    """The paper's P<Box series scheme: pragmas on the spatial loops.

    Per direction, a *shared* flux array is filled by EvalFlux1 tasks
    over z-chunks, transformed by EvalFlux2 tasks over z-chunks, and
    consumed by accumulation tasks over z-chunks — three barrier groups
    per direction, temporaries shared exactly like Fig. 6's code.
    Chunk tasks write disjoint slices, so each group is race-free.
    """
    import numpy as np

    from ..exemplar.flux import (
        accumulate_divergence,
        eval_flux1,
        eval_flux2,
        multiply_face_velocity,
    )
    from ..exemplar.state import velocity_component

    g = _G
    zax = dim - 1
    groups: list[TaskGroup] = []

    for d in range(dim):
        sl = tuple(
            slice(None) if ax == d else slice(g, -g) for ax in range(dim)
        ) + (slice(None),)
        view = phi_g[sl]
        face_shape = tuple(
            view.shape[ax] - 3 if ax == d else view.shape[ax]
            for ax in range(dim)
        )
        flux = np.empty(face_shape + (ncomp,), order="F")
        vd = velocity_component(d)
        nz = face_shape[zax]
        bounds = np.linspace(0, nz, chunks + 1, dtype=int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

        def zsl(a, b, extra_cells=0):
            return tuple(
                slice(a, b + extra_cells) if ax == zax else slice(None)
                for ax in range(dim)
            )

        # Group 1: EvalFlux1 chunks (all components) into the shared array.
        g1 = TaskGroup(f"box{box_index}-d{d}-flux1")
        for a, b in spans:
            if d == zax:
                # Faces a..b-1 along z read cells a..b+2 of the view.
                src = view[zsl(a, b + 3)]
            else:
                src = view[zsl(a, b)]
            dst = flux[zsl(a, b) + (slice(None),)]
            g1.tasks.append(
                (lambda s, o, dd: lambda: eval_flux1(s, axis=dd, out=o))(
                    src, dst, d
                )
            )
        groups.append(g1)

        # Group 2: EvalFlux2 chunks (velocity held in the vd slot; the
        # vd component multiplied last, as in the CLO executor — for
        # CLI the velocity is copied out per chunk first).
        g2 = TaskGroup(f"box{box_index}-d{d}-flux2")
        for a, b in spans:
            chunk = flux[zsl(a, b) + (slice(None),)]

            def flux2(chunk=chunk, vd=vd):
                if clo:
                    multiply_face_velocity(chunk, vd)
                else:
                    eval_flux2(chunk, chunk[..., vd].copy(), out=chunk)

            g2.tasks.append(flux2)
        groups.append(g2)

        # Group 3: accumulation chunks over cells.
        nz_cells = phi1_box.shape[zax]
        cb = np.linspace(0, nz_cells, chunks + 1, dtype=int)
        g3 = TaskGroup(f"box{box_index}-d{d}-accum")
        for a, b in ((int(x), int(y)) for x, y in zip(cb[:-1], cb[1:]) if y > x):
            cells = phi1_box[zsl(a, b) + (slice(None),)]
            if d == zax:
                faces = flux[zsl(a, b + 1) + (slice(None),)]
            else:
                faces = flux[zsl(a, b) + (slice(None),)]
            g3.tasks.append(
                (lambda cc, ff, dd: lambda: accumulate_divergence(cc, ff, axis=dd))(
                    cells, faces, d
                )
            )
        groups.append(g3)
    return groups


def _wavefront_groups(
    executor: BlockedWavefrontExecutor, phi_g, phi1_box, box_index: int, dim: int, ncomp: int
) -> list[TaskGroup]:
    """Wavefront barrier groups for one box, sharing a flux-cache dict.

    The velocity precompute runs as a single-task group first (it is
    what the paper also treats as a separate pass).  For CLO, each
    component contributes its own wavefront sequence.
    """
    local = Box.from_extents((0,) * dim, phi1_box.shape[:-1])
    grid = TileGrid(local, executor.variant.tile_size)
    state: dict = {"velocities": None}
    groups: list[TaskGroup] = []

    def precompute():
        state["velocities"] = compute_velocities(phi_g, dim)

    pre = TaskGroup(f"box{box_index}-velocity")
    pre.tasks.append(precompute)
    groups.append(pre)

    comp_sels = (
        [slice(None)]
        if executor.variant.component_loop == "CLI"
        else list(range(ncomp))
    )
    for cs in comp_sels:
        cache: dict = {}
        for w, tile_ids in enumerate(grid.wavefronts()):
            group = TaskGroup(f"box{box_index}-wf{w}")
            for ti in tile_ids:
                group.tasks.append(
                    (lambda t, c, s: lambda: executor.process_tile(
                        phi_g, phi1_box, state["velocities"], grid, c, t, s
                    ))(ti, cs, cache)
                )
            groups.append(group)
    return groups
