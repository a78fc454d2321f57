"""Property-based tests of the ghost exchange (hypothesis).

Every ghost cell of a periodic level must equal the valid cell at its
wrapped image, for arbitrary divisible (domain, box, ghost) triples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.box import (
    Box,
    DisjointBoxLayout,
    LevelData,
    ProblemDomain,
    decompose_domain,
)

from .test_exchange import assert_plan_matches_enumeration


@st.composite
def exchange_configs(draw):
    dim = draw(st.integers(2, 3))
    boxes_per_dim = draw(st.integers(1, 3))
    box_size = draw(st.integers(2, 5))
    ghost = draw(st.integers(1, min(2, box_size)))
    n = boxes_per_dim * box_size
    return dim, n, box_size, ghost


@settings(max_examples=25, deadline=None)
@given(exchange_configs())
def test_every_ghost_matches_wrapped_image(cfg):
    dim, n, box_size, ghost = cfg
    domain = ProblemDomain(Box.cube(n, dim))
    layout = decompose_domain(domain, box_size)
    ld = LevelData(layout, ncomp=1, ghost=ghost)
    weights = [1, n + 3, (n + 3) ** 2][:dim]

    def fn(*grids_and_comp):
        *grids, _ = grids_and_comp
        acc = 0
        for g, w in zip(grids, weights):
            acc = acc + g * w
        return acc

    ld.fill_from_function(fn)
    ld.exchange()

    for i in layout:
        box = layout.box(i)
        grown = box.grow(ghost)
        data = np.asarray(ld[i].window(grown, comp=0))
        grids = np.meshgrid(
            *[np.arange(grown.lo[d], grown.hi[d] + 1) for d in range(dim)],
            indexing="ij",
        )
        expect = sum(((g % n) * w) for g, w in zip(grids, weights))
        assert np.array_equal(data, expect)


@settings(max_examples=15, deadline=None)
@given(exchange_configs(), st.integers(0, 2**16))
def test_exchange_never_alters_valid_cells(cfg, seed):
    dim, n, box_size, ghost = cfg
    domain = ProblemDomain(Box.cube(n, dim))
    layout = decompose_domain(domain, box_size)
    ld = LevelData(layout, ncomp=2, ghost=ghost)
    rng = np.random.default_rng(seed)
    for fab in ld.fabs:
        fab.data[...] = rng.random(fab.data.shape)
    before = ld.to_global_array()
    ld.exchange()
    assert np.array_equal(ld.to_global_array(), before)


@st.composite
def plan_configs(draw):
    dim = draw(st.integers(1, 3))
    axis = st.tuples(st.integers(1, 6 if dim < 3 else 4), st.integers(1, 3))
    counts, sizes = zip(*(draw(axis) for _ in range(dim)))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    lo = tuple(draw(st.integers(-4, 4)) for _ in range(dim))
    ghost = draw(st.integers(1, 2 * max(sizes) + 1))
    drop = draw(st.one_of(st.none(), st.integers(0, 10**6)))
    return counts, sizes, periodic, lo, ghost, drop


@settings(max_examples=25, deadline=None)
@given(plan_configs())
def test_class_plan_equals_per_box_enumeration(cfg):
    counts, sizes, periodic, lo, ghost, drop = cfg
    extent = tuple(c * s for c, s in zip(counts, sizes))
    domain = ProblemDomain(Box.from_extents(lo, extent), periodic=periodic)
    layout = decompose_domain(domain, sizes)
    if drop is not None and len(layout) > 1:
        # One box missing: still indexed, no longer a tiling.
        boxes = layout.boxes
        del boxes[drop % len(boxes)]
        layout = DisjointBoxLayout(domain, boxes)
    assert_plan_matches_enumeration(layout, ghost)
