"""Real wall-clock of the NumPy schedule executors (sanity layer).

These time the *actual* numerical kernels on this container at a small
box size.  They exist to keep the functional layer honest (every
variant really computes the kernel) — the scaling study itself runs on
the machine model, because interpreted-loop relative timings do not
transfer to compiled code (the repro band's "interpreted loops defeat
the point").
"""

import numpy as np
import pytest

from repro.exemplar import random_initial_data, reference_kernel
from repro.schedules import Variant, make_executor

N = 24
VARIANTS = [
    Variant("series", "P>=Box", "CLO"),
    Variant("series", "P>=Box", "CLI"),
    Variant("shift_fuse", "P>=Box", "CLI"),
    Variant("blocked_wavefront", "P<Box", "CLI", tile_size=8),
    Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="basic"),
    Variant("overlapped", "P<Box", "CLO", tile_size=8, intra_tile="shift_fuse"),
    # The Shift-Fuse OT-16 of paper Fig. 2; at N=24 its tiles are 16 and 8
    # cells wide, so the fused sweep's partial-tile path is checked too.
    Variant("overlapped", "P<Box", "CLO", tile_size=16, intra_tile="shift_fuse"),
]


@pytest.fixture(scope="module")
def phi_g():
    return random_initial_data((N + 4,) * 3, seed=42)


@pytest.fixture(scope="module")
def ref(phi_g):
    return reference_kernel(phi_g)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.short_name)
def test_kernel_walltime(benchmark, variant, phi_g, ref):
    ex = make_executor(variant, dim=3, ncomp=5)
    out = benchmark(ex.run_fresh, phi_g)
    assert np.array_equal(out, ref)


def test_reference_kernel_walltime(benchmark, phi_g, ref):
    out = benchmark(reference_kernel, phi_g)
    assert np.array_equal(out, ref)
