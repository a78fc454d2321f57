"""Byte budgets: admission-time memory guard over arena and RSS probes.

The paper's core finding is that oversubscribing a shared resource
collapses throughput; at the service level the shared resource is
process memory.  :class:`ByteBudget` makes that a *deterministic*
admission decision: a submission arriving while the probe reads above
the limit is rejected with a structured reason, instead of queueing
work that will thrash.

Probes:

* ``"arena"`` (default) — live bytes pinned by the scratch arena
  (:func:`repro.util.arena.arena_stats`, the same source of truth the
  attribution report reads);
* ``"rss"`` — current process resident set (``/proc/self/statm`` on
  Linux, ``ru_maxrss`` fallback elsewhere);
* ``"arena+rss"`` — the sum;
* ``"memo"`` — bytes pinned by every live
  :class:`~repro.serve.memo.MemoStore` (cache growth competes with
  admissions for the same ceiling);
* ``"arena+memo"`` — arena plus memo bytes;
* any callable returning bytes — tests and the chaos soak inject a
  controllable probe to produce deterministic budget pressure.

The budget tracks its own high-water mark under its lock; gauges are
published by the service supervisor (single writer).
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["ByteBudget", "process_rss_bytes"]


def process_rss_bytes() -> int:
    """Current resident set size in bytes (best effort, zero if unknown)."""
    try:
        with open("/proc/self/statm") as fh:
            fields = fh.read().split()
        import resource

        page = resource.getpagesize()
        return int(fields[1]) * page
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux (bytes on macOS); treat as KiB — a
        # conservative overestimate is the safe direction for a budget.
        return int(usage.ru_maxrss) * 1024
    except Exception:  # noqa: BLE001 - resource may be missing entirely
        return 0


def _arena_bytes() -> int:
    from ..util.arena import arena_stats

    return int(arena_stats()["bytes_pinned"])


def _memo_bytes() -> int:
    # Late import: memo imports nothing from budget, but keeping the
    # probe lazy means `repro.serve.budget` stays importable alone.
    from .memo import memo_bytes

    return memo_bytes()


_SOURCES: dict[str, Callable[[], int]] = {
    "arena": _arena_bytes,
    "rss": process_rss_bytes,
    "arena+rss": lambda: _arena_bytes() + process_rss_bytes(),
    "memo": _memo_bytes,
    "arena+memo": lambda: _arena_bytes() + _memo_bytes(),
}


class ByteBudget:
    """A byte ceiling with a pluggable probe and a high-water mark."""

    def __init__(
        self,
        limit_bytes: int | None,
        probe: str | Callable[[], int] = "arena",
    ):
        if isinstance(probe, str):
            try:
                probe_fn = _SOURCES[probe]
            except KeyError:
                raise ValueError(
                    f"unknown budget probe {probe!r}; use {sorted(_SOURCES)} "
                    f"or a callable"
                ) from None
            self.source = probe
        else:
            probe_fn = probe
            self.source = getattr(probe, "__name__", "custom")
        if limit_bytes is not None and limit_bytes < 0:
            raise ValueError(f"limit_bytes must be >= 0, got {limit_bytes}")
        self.limit_bytes = None if limit_bytes is None else int(limit_bytes)
        self._probe = probe_fn
        self._lock = threading.Lock()
        self.high_water = 0
        self.rejections = 0

    def current(self) -> int:
        """The probe's current reading (also advances the high-water)."""
        value = int(self._probe())
        with self._lock:
            if value > self.high_water:
                self.high_water = value
        return value

    def admits(self) -> tuple[bool, int]:
        """(does the budget admit new work now?, the probe reading)."""
        value = self.current()
        if self.limit_bytes is None or value <= self.limit_bytes:
            return True, value
        with self._lock:
            self.rejections += 1
        return False, value

    def stats(self) -> dict:
        with self._lock:
            return {
                "limit_bytes": self.limit_bytes,
                "source": self.source,
                "high_water": self.high_water,
                "rejections": self.rejections,
            }

    def __repr__(self) -> str:
        return (
            f"ByteBudget(limit={self.limit_bytes}, source={self.source!r}, "
            f"high_water={self.high_water})"
        )
