"""Process-wide performance counters for the execution substrate.

The scratch arena (:mod:`repro.util.arena`), every substrate cache
(:mod:`repro.util.cache`) and the experiment runner all report
into one global :class:`PerfCounters` instance, so a benchmark run can
answer "how much re-allocation and re-planning did the substrate
avoid?" with a single snapshot.

Since the observability subsystem landed, this module is a thin facade
over :mod:`repro.obs.metrics`: every increment goes to the calling
thread's private metric shard (no lock, no contention, and no lost
updates under the shared pool — the old single-lock implementation
serialized the hot path), and reads merge the shards.  The global
instance namespaces its metrics under ``perf.`` in the process
registry, so ``python -m repro.bench --metrics PATH`` exports the
substrate counters alongside everything else.

Counters are plain monotonically increasing numbers (``inc``) or
accumulated wall-clock seconds (``add_time``); reads return a
consistent merged view.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from ..obs.metrics import MetricsRegistry, default_registry

__all__ = [
    "PerfCounters",
    "perf",
    "publish_cache_gauges",
    "reset_perf",
    "timed",
    "format_perf_report",
]

#: Report labels that are not just the family name with spaces.  Display
#: only: which families exist comes from :mod:`repro.util.cache`.
_LABELS = {
    "arena": "scratch arena",
    "phase_cache": "phase-cost cache",
    "copier_cache": "copier plan cache",
    "halo_cache": "halo plan cache",
    "fastpath_cache": "fast-path table cache",
}

_COUNT = "count."
_TIME = "time."


class PerfCounters:
    """Named counters and timers, sharded per thread, merged on read.

    A facade over a :class:`~repro.obs.metrics.MetricsRegistry`
    namespace — the legacy substrate API (`inc`/`add_time`/`get`/
    `hit_rate`/`snapshot`) unchanged, the storage replaced.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, prefix: str = ""
    ) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._prefix = prefix

    @property
    def registry(self) -> MetricsRegistry:
        """The backing metrics registry."""
        return self._registry

    # -- updates ---------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self._registry.counter_inc(self._prefix + _COUNT + name, amount)

    def add_time(self, name: str, seconds: float) -> None:
        self._registry.counter_inc(self._prefix + _TIME + name, seconds)

    def reset(self) -> None:
        self._registry.reset(self._prefix if self._prefix else "")

    # -- reads -----------------------------------------------------------------------
    def get(self, name: str) -> int:
        return int(self._registry.counter_value(self._prefix + _COUNT + name))

    def get_time(self, name: str) -> float:
        return float(self._registry.counter_value(self._prefix + _TIME + name))

    def hit_rate(self, prefix: str) -> float:
        """hits / (hits + misses) for counters ``<prefix>.hits/misses``."""
        hits = self.get(f"{prefix}.hits")
        misses = self.get(f"{prefix}.misses")
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Copy of all counters and timers (for JSON reports)."""
        counters = self._registry.snapshot()["counters"]
        cpre = self._prefix + _COUNT
        tpre = self._prefix + _TIME
        return {
            "counts": {
                k[len(cpre):]: int(v)
                for k, v in counters.items()
                if k.startswith(cpre)
            },
            "times": {
                k[len(tpre):]: float(v)
                for k, v in counters.items()
                if k.startswith(tpre)
            },
        }


#: The process-wide instance every substrate layer reports into; its
#: metrics live under ``perf.`` in the global registry.
_PERF = PerfCounters(default_registry(), prefix="perf.")


def perf() -> PerfCounters:
    """The global perf-counter instance."""
    return _PERF


def reset_perf() -> None:
    """Zero every global counter and timer."""
    _PERF.reset()


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Accumulate the wall time of the enclosed block under ``name``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        _PERF.add_time(name, time.perf_counter() - start)


def publish_cache_gauges(registry=None) -> dict[str, float]:
    """Snapshot every cache family's hit rate into ``repro.obs`` gauges.

    Sets ``cache.<family>.hit_rate`` (plus ``.hits``/``.misses``) in the
    registry for each family registered with :mod:`repro.util.cache`
    that saw any traffic, and returns the hit rates.  The benchmark
    harness and ``JobService.stop()`` publish these so dashboards can
    watch cache effectiveness without scraping counter pairs.
    """
    from .cache import cache_families  # cache.py imports perf() from here

    if registry is None:
        registry = default_registry()
    rates: dict[str, float] = {}
    for prefix in cache_families():
        hits = _PERF.get(f"{prefix}.hits")
        misses = _PERF.get(f"{prefix}.misses")
        if hits + misses == 0:
            continue
        rate = hits / (hits + misses)
        rates[prefix] = rate
        registry.gauge_set(f"cache.{prefix}.hit_rate", rate)
        registry.gauge_set(f"cache.{prefix}.hits", float(hits))
        registry.gauge_set(f"cache.{prefix}.misses", float(misses))
    return rates


def format_perf_report() -> str:
    """Human-readable summary of the substrate counters."""
    from .cache import cache_families

    snap = _PERF.snapshot()
    counts, times = snap["counts"], snap["times"]
    out = ["substrate perf counters:"]
    for prefix in cache_families():
        label = _LABELS.get(prefix, prefix.replace("_", " "))
        hits = counts.get(f"{prefix}.hits", 0)
        misses = counts.get(f"{prefix}.misses", 0)
        if hits + misses == 0:
            continue
        rate = hits / (hits + misses)
        line = f"  {label}: {hits} hits / {misses} misses ({rate:.1%})"
        reused = counts.get(f"{prefix}.bytes_reused", 0)
        if reused:
            line += f", {reused / 1e6:.1f} MB re-used"
        out.append(line)
    for name in sorted(times):
        out.append(f"  {name}: {times[name]:.3f} s")
    if len(out) == 1:
        out.append("  (no activity recorded)")
    return "\n".join(out)
