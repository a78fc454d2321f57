"""Shared utilities: allocation accounting, scratch arena, perf counters."""

from .alloc import AllocationTracker, current_tracker, track_allocations
from .arena import (
    arena_stats,
    clear_arena,
    publish_arena_gauges,
    scratch_arena,
    scratch_scope,
)
from .perf import format_perf_report, perf, publish_cache_gauges, reset_perf

__all__ = [
    "AllocationTracker",
    "current_tracker",
    "track_allocations",
    "scratch_arena",
    "scratch_scope",
    "clear_arena",
    "arena_stats",
    "publish_arena_gauges",
    "perf",
    "publish_cache_gauges",
    "reset_perf",
    "format_perf_report",
]
