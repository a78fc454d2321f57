"""Set-associative LRU cache simulator and the analytic stack-distance model.

The simulator validates the analytic miss-fraction model in
:mod:`repro.analysis.traffic`: synthetic address traces with the same
structure as the schedules' access patterns (streaming reads, strided
stencil reuse, scratch write-read) replay through this simulator, and
tests check the analytic ``miss_fraction`` tracks the simulated miss
rate on both sides of the capacity cliff.

:class:`StackDistanceProfile` is the analytic counterpart: one
O(N log N) pass over a trace yields the LRU stack-distance histogram,
from which the exact fully-associative miss *and writeback* counts for
**every** cache capacity follow by histogram lookup — no per-line
replay per capacity.  It grounds the fast path's closed-form traffic
model: the ``fast_path`` verify family checks the profile against the
simulator (exactly for fully-associative, within tolerance for 8-way).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "CacheStats",
    "SetAssociativeCache",
    "CacheHierarchy",
    "StackDistanceProfile",
]


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class SetAssociativeCache:
    """A single write-back, write-allocate, LRU set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_bytes:
        Cache-line size (64 for every machine in the paper).
    ways:
        Associativity; ``ways=0`` means fully associative.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8):
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("sizes must be positive")
        if size_bytes % line_bytes != 0:
            raise ValueError("capacity must be a multiple of the line size")
        lines = size_bytes // line_bytes
        if ways == 0:
            ways = lines
        if lines % ways != 0:
            raise ValueError("line count must be a multiple of associativity")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = lines // ways
        # Each set: OrderedDict tag -> dirty flag, LRU order = insertion.
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, address: int, write: bool = False) -> bool:
        """Access one byte address.  Returns True on hit."""
        set_idx, tag = self._locate(address)
        s = self._sets[set_idx]
        self.stats.accesses += 1
        if tag in s:
            s.move_to_end(tag)
            if write:
                s[tag] = True
            return True
        self.stats.misses += 1
        if len(s) >= self.ways:
            _, dirty = s.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
        s[tag] = write
        return False

    def access_range(self, start: int, nbytes: int, write: bool = False) -> int:
        """Access every line in a byte range; returns the miss count.

        Semantically a loop of :meth:`access` per touched line, but with
        the per-line work inlined and all lookups hoisted — range
        replays are the bulk of trace validation and the exact-vs-fast
        comparisons, and the per-call overhead of ``access`` dominated
        them.
        """
        if nbytes <= 0:
            return 0
        line = self.line_bytes
        first = start // line
        last = (start + nbytes - 1) // line
        sets = self._sets
        num_sets = self.num_sets
        ways = self.ways
        stats = self.stats
        stats.accesses += last - first + 1
        misses = 0
        writebacks = 0
        for ln in range(first, last + 1):
            s = sets[ln % num_sets]
            tag = ln // num_sets
            if tag in s:
                s.move_to_end(tag)
                if write:
                    s[tag] = True
            else:
                misses += 1
                if len(s) >= ways:
                    _, dirty = s.popitem(last=False)
                    if dirty:
                        writebacks += 1
                s[tag] = write
        stats.misses += misses
        stats.writebacks += writebacks
        return misses

    def flush(self) -> None:
        """Drop all contents (counting dirty writebacks)."""
        for s in self._sets:
            for _, dirty in s.items():
                if dirty:
                    self.stats.writebacks += 1
            s.clear()


class CacheHierarchy:
    """A two-level hierarchy (private L2 over a shared-L3 share).

    Misses in the upper level fall through to the lower one; DRAM
    traffic is the lower level's misses plus writebacks, in lines.
    """

    def __init__(self, l2: SetAssociativeCache, l3: SetAssociativeCache):
        if l2.line_bytes != l3.line_bytes:
            raise ValueError("levels must share a line size")
        self.l2 = l2
        self.l3 = l3

    def access(self, address: int, write: bool = False) -> None:
        if not self.l2.access(address, write):
            self.l3.access(address, write)

    def access_range(self, start: int, nbytes: int, write: bool = False) -> None:
        if nbytes <= 0:
            return
        line = self.l2.line_bytes
        first = (start // line) * line
        stop = ((start + nbytes - 1) // line) * line
        for addr in range(first, stop + line, line):
            self.access(addr, write)

    def dram_bytes(self) -> int:
        """DRAM traffic so far: L3 fills plus writebacks."""
        return (self.l3.stats.misses + self.l3.stats.writebacks) * self.l3.line_bytes


class _Fenwick:
    """Binary indexed tree over trace positions (prefix sums of marks)."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, v: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += v
            i += i & -i

    def prefix(self, i: int) -> int:
        """Sum of marks at positions ``0..i`` inclusive."""
        i += 1
        tree = self.tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


class StackDistanceProfile:
    """Analytic LRU model: one trace pass answers *every* capacity.

    The LRU stack distance of an access is the number of distinct lines
    touched since the previous access to the same line; under a
    fully-associative LRU cache of ``C`` lines the access hits iff its
    distance is below ``C``.  One O(N log N) pass (last-occurrence marks
    on a Fenwick tree) therefore yields:

    * the reuse-distance histogram — exact miss counts for any capacity;
    * the per-write *episode* histogram — for each write, the largest
      distance seen on that line since its previous write.  The write
      opens a new dirty residency episode iff that maximum reaches the
      capacity (some access in between missed), and each dirty episode
      costs exactly one writeback (at eviction or final flush).

    Both counts match ``SetAssociativeCache(ways=0)`` replay + flush
    *exactly*; set-associative caches add conflict misses the tests
    bound with a tolerance.  This is the model behind the fast path's
    cache-dependent traffic: evaluating a new capacity is two histogram
    lookups instead of a per-line replay.
    """

    def __init__(
        self,
        line_bytes: int,
        cold: int,
        reuse_distances: Sequence[int],
        write_inf: int,
        write_maxes: Sequence[int],
    ):
        self.line_bytes = line_bytes
        self.cold = cold
        #: Sorted reuse distances (one entry per non-cold access).
        self.reuse_distances = sorted(reuse_distances)
        #: Writes whose episode unconditionally misses (first write to a line).
        self.write_inf = write_inf
        #: Sorted per-write max-distance-since-last-write values.
        self.write_maxes = sorted(write_maxes)

    @classmethod
    def from_trace(
        cls, trace: Iterable[tuple[int, bool]], line_bytes: int = 64
    ) -> "StackDistanceProfile":
        """Profile a (byte address, is_write) trace at line granularity.

        Consecutive accesses to the same line collapse to one
        line-granularity access (they can never miss), matching what a
        per-line replay of the same trace observes.
        """
        events: list[tuple[int, bool]] = []
        prev_line = None
        for addr, write in trace:
            ln = addr // line_bytes
            if ln == prev_line:
                if write and events and not events[-1][1]:
                    events[-1] = (ln, True)
                continue
            events.append((ln, write))
            prev_line = ln
        n = len(events)
        fen = _Fenwick(n)
        last: dict[int, int] = {}
        # Running max distance per line since that line's previous write;
        # math.inf marks "no write yet this residency history".
        run_max: dict[int, float] = {}
        cold = 0
        reuse: list[int] = []
        write_inf = 0
        write_maxes: list[int] = []
        for t, (ln, write) in enumerate(events):
            p = last.get(ln)
            if p is None:
                d: float = math.inf
                cold += 1
            else:
                d = fen.prefix(t - 1) - fen.prefix(p)
                reuse.append(int(d))
                fen.add(p, -1)
            fen.add(t, 1)
            last[ln] = t
            m = max(run_max.get(ln, math.inf if p is None else -1.0), d)
            if write:
                if math.isinf(m):
                    write_inf += 1
                else:
                    write_maxes.append(int(m))
                run_max[ln] = -1.0
            else:
                run_max[ln] = m
        return cls(line_bytes, cold, reuse, write_inf, write_maxes)

    @property
    def total_accesses(self) -> int:
        """Line-granularity accesses (distinct-line transitions)."""
        return self.cold + len(self.reuse_distances)

    def _lines(self, capacity_bytes: int) -> int:
        return max(0, int(capacity_bytes) // self.line_bytes)

    def misses(self, capacity_bytes: int) -> int:
        """Exact fully-associative LRU miss count at this capacity."""
        c = self._lines(capacity_bytes)
        rd = self.reuse_distances
        return self.cold + len(rd) - bisect_left(rd, c)

    def writebacks(self, capacity_bytes: int) -> int:
        """Exact writeback count (evictions plus final flush)."""
        c = self._lines(capacity_bytes)
        wm = self.write_maxes
        return self.write_inf + len(wm) - bisect_left(wm, c)

    def dram_bytes(self, capacity_bytes: int) -> int:
        """Fills plus writebacks, in bytes — ``measure_dram_bytes``'s sum."""
        return (
            self.misses(capacity_bytes) + self.writebacks(capacity_bytes)
        ) * self.line_bytes

    def miss_curve(self, capacities: Sequence[int]) -> list[int]:
        """Miss counts for many capacities (one histogram, many lookups)."""
        return [self.misses(c) for c in capacities]
