"""Tests of allocation tracking."""

import numpy as np

from repro.util import track_allocations
from repro.util.alloc import alloc_scratch, current_tracker


class TestAllocationTracking:
    def test_untracked_by_default(self):
        assert current_tracker() is None
        arr = alloc_scratch("x", (4, 4))
        assert arr.shape == (4, 4)
        assert arr.flags.f_contiguous

    def test_tracked_inside_context(self):
        with track_allocations() as t:
            alloc_scratch("flux", (4, 4))
            alloc_scratch("flux", (8,))
            alloc_scratch("velocity", (2, 2, 2))
        assert t.total_elements() == 16 + 8 + 8
        assert t.total_elements("flux") == 24
        assert t.count("flux") == 2
        assert t.peak_elements_by_tag() == {"flux": 16, "velocity": 8}

    def test_nested_contexts_restore(self):
        with track_allocations() as outer:
            alloc_scratch("a", (2,))
            with track_allocations() as inner:
                alloc_scratch("b", (3,))
            alloc_scratch("a", (2,))
        assert outer.total_elements() == 4
        assert inner.total_elements() == 3
        assert current_tracker() is None

    def test_dtype_and_order(self):
        arr = alloc_scratch("x", (3, 3), dtype=np.float32, order="C")
        assert arr.dtype == np.float32
        assert arr.flags.c_contiguous

