"""BoundedCache: the one LRU under every substrate cache, and its registry."""

import gc
import sys
import threading
import weakref

from repro.box.copier import shared_copier
from repro.cluster import decompose_ranks, halo_plan
from repro.machine import (
    SANDY_BRIDGE,
    build_workload,
    engine_mode,
    estimate_workload,
    simulate_workload,
)
from repro.machine import workload as workload_module
from repro.machine.fastpath import WorkloadTable
from repro.machine.workload import clear_workload_cache
from repro.resilience.faults import FaultPlan, inject_faults
from repro.schedules import Variant
from repro.util.cache import (
    BoundedCache,
    cache_families,
    clear_all_caches,
    registered_caches,
)
from repro.util.perf import perf, reset_perf

V = Variant("series", "P<Box", "CLO")


def _lookup(cache, key):
    """get_or_build with a fresh object per build; (value, was_built)."""
    built = []

    def build():
        built.append(object())
        return built[0]

    return cache.get_or_build(key, build), bool(built)


class TestBoundedCache:
    def test_lru_evicts_oldest_untouched_key(self):
        cache = BoundedCache("test_lru", 3)
        for k in "abc":
            _lookup(cache, k)
        _lookup(cache, "a")  # touch: "b" is now the oldest
        _lookup(cache, "d")  # overflow
        assert len(cache) == 3
        assert _lookup(cache, "a")[1] is False
        assert _lookup(cache, "c")[1] is False
        assert _lookup(cache, "d")[1] is False
        assert _lookup(cache, "b")[1] is True

    def test_hits_plus_misses_equals_lookups(self):
        reset_perf()
        cache = BoundedCache("test_counts", 4)
        keys = [0, 1, 0, 2, 3, 4, 0, 5, 1, 1]
        built = sum(_lookup(cache, k)[1] for k in keys)
        hits = perf().get("test_counts.hits")
        misses = perf().get("test_counts.misses")
        assert misses == built
        assert hits + misses == len(keys)
        assert "test_counts" in cache_families()

    def test_racing_builders_share_the_first_inserted_value(self):
        cache = BoundedCache("test_race", 4)
        barrier = threading.Barrier(8)
        got = []

        def build():
            barrier.wait(timeout=10)  # every thread misses before any inserts
            return object()

        def work():
            got.append(cache.get_or_build("k", build))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(got) == 8
        assert all(v is got[0] for v in got)

    def test_threaded_stress_keeps_bound_and_counts(self):
        reset_perf()
        cache = BoundedCache("test_stress", 8)
        bad = []

        def work(seed):
            for i in range(2000):
                key = (seed * 7 + i * 13) % 24
                value = cache.get_or_build(key, lambda: key * 2)
                if value != key * 2 or len(cache) > 8:
                    bad.append((key, value, len(cache)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        p = perf()
        assert p.get("test_stress.hits") + p.get("test_stress.misses") == 16000

    def test_clear_empties_and_forces_rebuild(self):
        cache = BoundedCache("test_clear", 4)
        first, _ = _lookup(cache, "k")
        assert _lookup(cache, "k") == (first, False)
        cache.clear()
        assert len(cache) == 0
        again, built = _lookup(cache, "k")
        assert built and again is not first

    def test_none_is_a_cacheable_value(self):
        cache = BoundedCache("test_none", 2)
        calls = []
        for _ in range(2):
            assert cache.get_or_build("k", lambda: calls.append(1)) is None
        assert len(calls) == 1


class TestRegistry:
    def test_clear_all_empties_every_registered_cache(self):
        with inject_faults(FaultPlan([])):
            wl = build_workload(V, 16, (32, 32, 32))
            estimate_workload(wl, SANDY_BRIDGE, 4)
            simulate_workload(wl, SANDY_BRIDGE, 4)
            with engine_mode("fast"):
                estimate_workload(wl, SANDY_BRIDGE, 4)
        layout = decompose_ranks((32, 32, 32), 16, 2).layout
        shared_copier(layout, 2)
        halo_plan(layout, 2)
        warm = {c.name for c in registered_caches() if len(c)}
        assert warm >= {
            "workload_cache",
            "box_cycle_cache",
            "phase_cache",
            "sim_phase_cache",
            "fastpath_cache",
            "copier_cache",
            "halo_cache",
            "halo_tally_cache",
            "base_layout_cache",
            "rank_grid_cache",
        }
        assert "arena" in cache_families()
        clear_all_caches()
        assert [c.name for c in registered_caches() if len(c)] == []
        assert build_workload(V, 16, (32, 32, 32)) is not wl

    def test_dropped_workload_table_leaves_the_registry(self):
        clear_workload_cache()
        gc.collect()
        table = WorkloadTable(build_workload(V, 16, (32, 32, 32)))
        ref = weakref.ref(table._evals)
        assert any(c is table._evals for c in registered_caches())
        live = len(registered_caches())
        del table
        gc.collect()
        assert ref() is None
        assert len(registered_caches()) == live - 1
        assert "fastpath_cache" in cache_families()


class TestBoxCycleCacheBounded:
    def test_more_box_sizes_than_the_bound(self):
        """Regression: the per-box phase-cycle memo was an unbounded dict."""
        cycles = workload_module._BOX_CYCLE_CACHE
        first = build_workload(V, 4, (4, 4, 4))
        key = first.phases[0].structure_key()
        with inject_faults(FaultPlan([])):
            time_s = estimate_workload(first, SANDY_BRIDGE, 4).time_s
            for n in range(5, 5 + 600):
                build_workload(V, n, (n, n, n))
                assert len(cycles) <= 512
            again = build_workload(V, 4, (4, 4, 4))  # evicted: rebuilt
            assert again is not first
            assert again.phases[0].structure_key() == key
            assert estimate_workload(again, SANDY_BRIDGE, 4).time_s == time_s
