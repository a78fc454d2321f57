"""Tests of the extended variant pool and its integration points."""

import numpy as np
import pytest

from repro.exemplar import random_initial_data, reference_kernel
from repro.machine import MAGNY_COURS
from repro.schedules import extended_variants, make_executor, practical_variants
from repro.tuning import Autotuner


class TestExtendedPool:
    def test_superset_of_practical(self):
        ext = extended_variants()
        assert set(practical_variants()) <= set(ext)
        hier = [v for v in ext if v.intra_tile == "wavefront"]
        assert len(hier) == 6
        assert all(v.inner_tile_size < v.tile_size for v in hier)

    def test_all_extended_bitwise(self):
        phi_g = random_initial_data((21,) * 3, seed=5)  # 17^3 box
        ref = reference_kernel(phi_g)
        for v in extended_variants():
            if not v.applicable_to_box(17):
                continue
            out = make_executor(v, dim=3, ncomp=5).run_fresh(phi_g)
            assert np.array_equal(out, ref), v.label

    def test_autotuner_accepts_extended_pool(self):
        tuner = Autotuner(MAGNY_COURS)
        result = tuner.tune(128, variants=extended_variants())
        assert result.best.time_s > 0
        # The hierarchical points are evaluated or pruned, not ignored.
        labels = {e.variant.label for e in result.entries}
        assert any("Hier-WF" in l for l in labels)
