"""Thread-local scratch-buffer arena: pooled reuse of temporary arrays.

The schedule executors allocate flux/velocity scratch through
:func:`repro.util.alloc.alloc_scratch` once per box (or tile, or slab).
A level run touches hundreds of boxes, so the same handful of array
shapes is allocated and dropped over and over — pure allocator and
page-fault churn that the paper's own measurements attribute to the
execution substrate, not the schedule.

The arena eliminates that churn without changing any semantics:

* buffers are pooled per *thread* and keyed by
  ``(tag, shape, dtype, order)`` — a buffer is only ever re-issued for
  an identical request, and never to another thread, so reuse cannot
  alias concurrent tasks;
* lifetimes are *scoped*: an executor wraps each task in
  :func:`scratch_scope`; buffers acquired inside a scope are live until
  the scope exits, so two allocations of the same key within one task
  always receive distinct arrays (no intra-task aliasing), and the
  buffers return to the thread's free list only when the task is done;
* the arena is **opt-in** (:func:`scratch_arena`): with it disabled —
  the default, and the reference path — ``alloc_scratch`` behaves
  exactly as before;
* pooling is invisible to :class:`~repro.util.alloc.AllocationTracker`:
  *logical* allocations are recorded identically whether a buffer was
  pooled or fresh, so the Table I temporary-storage validation is
  unaffected.

Reuse hands back uninitialized (stale) memory — exactly the contract
``np.empty`` already gives — so executors that fully overwrite their
scratch (all of ours; the equivalence tests enforce it) remain bitwise
identical to the reference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .cache import register_family
from .perf import perf

__all__ = [
    "scratch_arena",
    "scratch_scope",
    "arena_enabled",
    "arena_take",
    "clear_arena",
    "arena_stats",
    "publish_arena_gauges",
]

_lock = threading.Lock()
_enabled = 0  # depth of nested scratch_arena() contexts (process-wide)
_tls = threading.local()
#: (owning thread, state) for clear_arena() across threads.  Entries for
#: dead threads are pruned (see _sweep_dead_locked): without the sweep,
#: every worker a pool ever spawned would pin its free lists — and the
#: pooled arrays in them — for the life of the process.
_all_states: list[tuple[threading.Thread, "_ThreadState"]] = []


class _ThreadState:
    """Per-thread free lists and the stack of open task scopes."""

    __slots__ = ("free", "scopes")

    def __init__(self) -> None:
        self.free: dict[tuple, list[np.ndarray]] = {}
        self.scopes: list[list[tuple[tuple, np.ndarray]]] = []


def _sweep_dead_locked() -> None:
    """Drop registry entries of threads that have exited (_lock held).

    A dead thread can never return its pooled buffers to use, so its
    whole state is garbage; keeping it would leak across pool restarts.
    """
    alive = [(t, s) for t, s in _all_states if t.is_alive()]
    if len(alive) != len(_all_states):
        _all_states[:] = alive


def _state() -> _ThreadState:
    st = getattr(_tls, "state", None)
    if st is None:
        st = _ThreadState()
        _tls.state = st
        with _lock:
            _sweep_dead_locked()
            _all_states.append((threading.current_thread(), st))
    return st


def arena_enabled() -> bool:
    """Whether any :func:`scratch_arena` context is active."""
    return _enabled > 0


@contextmanager
def scratch_arena() -> Iterator[None]:
    """Enable the arena process-wide for the duration of the block.

    Nesting is fine; worker threads spawned inside the block pool their
    own buffers (free lists are per-thread even though enablement is
    global).
    """
    global _enabled
    with _lock:
        _enabled += 1
    try:
        yield
    finally:
        with _lock:
            _enabled -= 1


@contextmanager
def scratch_scope() -> Iterator[None]:
    """One task's scratch lifetime.

    Buffers acquired inside the scope stay live (never re-issued) until
    the scope exits, then return to this thread's free lists.  A no-op
    when the arena is disabled.
    """
    if not arena_enabled():
        yield
        return
    st = _state()
    st.scopes.append([])
    try:
        yield
    finally:
        for key, arr in st.scopes.pop():
            st.free.setdefault(key, []).append(arr)


def arena_take(tag: str, shape: tuple[int, ...], dtype, order: str) -> np.ndarray | None:
    """A pooled-or-fresh buffer, or None if the arena is not in charge.

    Returns None when the arena is disabled or no task scope is open on
    this thread (e.g. a plan task whose scratch outlives the task, like
    the wavefront frontier planes in the threaded plan) — the caller
    then allocates normally and the buffer is never pooled.
    """
    if not arena_enabled():
        return None
    st = _state()
    if not st.scopes:
        return None
    key = (tag, shape, np.dtype(dtype).str, order)
    stack = st.free.get(key)
    if stack:
        arr = stack.pop()
        p = perf()
        p.inc("arena.hits")
        p.inc("arena.bytes_reused", arr.nbytes)
    else:
        arr = np.empty(shape, dtype=dtype, order=order)
        p = perf()
        p.inc("arena.misses")
        p.inc("arena.bytes_allocated", arr.nbytes)
    st.scopes[-1].append((key, arr))
    return arr


def _state_sizes(st: _ThreadState) -> tuple[int, int, int, int]:
    """(free buffers, free bytes, live buffers, live bytes) of one state.

    Best-effort: the owning thread mutates its free lists without the
    module lock, so a concurrent resize can surface as a RuntimeError —
    the caller retries or skips the thread rather than crashing.
    """
    free_n = free_b = live_n = live_b = 0
    for stack in list(st.free.values()):
        for arr in list(stack):
            free_n += 1
            free_b += arr.nbytes
    for scope in list(st.scopes):
        for _key, arr in list(scope):
            live_n += 1
            live_b += arr.nbytes
    return free_n, free_b, live_n, live_b


def arena_stats() -> dict:
    """Live arena statistics across every registered thread.

    One source of truth for the serve layer's byte-budget guard and the
    attribution report: ``bytes_pinned`` is every byte the arena holds
    (idle free-list buffers plus in-scope live buffers), alongside the
    substrate hit/miss counters and the per-thread buffer census.
    Reads are best-effort snapshots — owner threads keep mutating their
    free lists — but ``bytes_pinned`` is exact whenever no scope is
    actively allocating.
    """
    with _lock:
        _sweep_dead_locked()
        states = [s for _, s in _all_states]
    free_n = free_b = live_n = live_b = 0
    per_thread: list[int] = []
    for st in states:
        try:
            n, b, ln, lb = _state_sizes(st)
        except RuntimeError:  # owner resized a list mid-snapshot
            continue
        free_n += n
        free_b += b
        live_n += ln
        live_b += lb
        per_thread.append(n + ln)
    p = perf()
    return {
        "enabled": arena_enabled(),
        "threads": len(states),
        "buffers_free": free_n,
        "buffers_live": live_n,
        "bytes_free": free_b,
        "bytes_live": live_b,
        "bytes_pinned": free_b + live_b,
        "buffers_per_thread_max": max(per_thread, default=0),
        "hits": p.get("arena.hits"),
        "misses": p.get("arena.misses"),
    }


def publish_arena_gauges(registry=None) -> dict:
    """Snapshot :func:`arena_stats` into ``repro.obs`` gauges.

    Sets ``arena.bytes_pinned``, ``arena.buffers_free``,
    ``arena.buffers_live``, ``arena.threads``,
    ``arena.buffers_per_thread_max``, ``arena.hits`` and
    ``arena.misses`` on the given registry (default: the process
    registry), and returns the stats dict it published.
    """
    if registry is None:
        from ..obs.metrics import default_registry

        registry = default_registry()
    stats = arena_stats()
    for key in (
        "bytes_pinned",
        "buffers_free",
        "buffers_live",
        "threads",
        "buffers_per_thread_max",
        "hits",
        "misses",
    ):
        registry.gauge_set(f"arena.{key}", float(stats[key]))
    return stats


def clear_arena() -> None:
    """Drop every thread's free lists (buffers become garbage).

    Open scopes keep their live buffers; only idle pooled memory is
    released.  Registry entries of threads that have since exited are
    pruned entirely.
    """
    with _lock:
        _sweep_dead_locked()
        states = [s for _, s in _all_states]
    for st in states:
        st.free.clear()


# A per-thread buffer pool, not a keyed cache: it joins the cache
# registry only for the perf report and clear_all_caches().
register_family("arena", clear_arena)
