"""Timing, tracing and accounting shared by every perfbench workload.

Nothing here touches ``src/repro``: spans are recorded by the harness
around its own calls into a layer's public functions, kept in memory,
and written out when the run ends.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

#: The one directory the benchmark writes into (ignored by git).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Jobs a closed-loop driver keeps outstanding (the callers of the serve
#: library are batch drivers that wait for replies, so load is closed-loop).
WINDOW = 16


# ------------------------------------------------------------------ spans
class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "op", "index")

    def __init__(self, tracer: "Tracer", name: str, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, self.op])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class Tracer:
    """Driver-thread spans: ``[name, start, end, parent index, op id]``.

    The driver is one thread, so one stack gives every span its parent.
    A disabled tracer hands out one shared no-op span, which is what the
    untraced rounds use.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, op=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, op)

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call made while tracing is on."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the part its direct child
        spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def to_rows(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op}
            for i, (n, s, e, p, op) in enumerate(self.spans)
        ]


# ------------------------------------------------------------------ accounting
_TICK = os.sysconf("SC_CLK_TCK")


def _live_children_cpu() -> float:
    """User + system CPU of child processes still running (Linux /proc).

    ``os.times`` counts a child only once it has been waited for; shard
    children live as long as the service, so their CPU is read here.
    """
    me = str(os.getpid())
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were reading
        if fields[1] == me:  # ppid
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _TICK


def cpu_seconds() -> float:
    """User + system CPU of this process and its children, reaped or live."""
    t = os.times()
    return (time.process_time() + t.children_user + t.children_system
            + _live_children_cpu())


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are read against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


CACHES = ("workload", "phase", "sim_phase", "copier", "halo")


def cache_hit_rates(counts: dict) -> dict:
    """``util.perf.<family>_cache.hit_rate`` from ``perf()`` counters."""
    out = {}
    for family in CACHES:
        hits = counts.get(f"{family}_cache.hits", 0)
        total = hits + counts.get(f"{family}_cache.misses", 0)
        out[f"util.perf.{family}_cache.hit_rate"] = hits / total if total else 0.0
    return out


@dataclass
class Round:
    """One fixed-size round: identical op count on every commit."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    #: Seconds the caller waited for each call it made into the library
    #: (a job for serve_*, a level step / figure / sweep otherwise).
    calls: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def timed_round(workload, tracer: Tracer) -> Round:
    """Run one round of ``workload`` and stamp its wall and CPU time."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with tracer.span("round"):
        rnd = workload.round(tracer)
    if not rnd.wall_s:
        rnd.wall_s = time.perf_counter() - t0
    if not rnd.cpu_s:
        rnd.cpu_s = cpu_seconds() - cpu0
    return rnd


# ------------------------------------------------------------------ closed loop
def closed_loop(service, specs, tracer: Tracer, on_settled):
    """Drive ``specs`` through ``service`` with ``WINDOW`` jobs outstanding.

    One driver thread: submit until the window is full, then wait for
    the oldest ticket before submitting the next.  ``on_settled(index,
    ticket)`` sees each ticket once; no ticket is kept after that, so
    the run's memory is the service's and not a list of a round's
    results.  Returns the per-job latencies (submit ->
    ``ticket.result()``) in submission order.
    """
    pending: deque = deque()
    latencies: list[float] = []
    clock = time.perf_counter
    span = tracer.span

    def settle_oldest():
        index, started, ticket = pending.popleft()
        with span("serve.wait", ticket.seq):
            ticket.result(timeout=120.0)
        latencies.append(clock() - started)
        on_settled(index, ticket)

    for index, spec in enumerate(specs):
        if len(pending) >= WINDOW:
            settle_oldest()
        started = clock()
        with span("serve.submit"):
            ticket = service.submit(spec)
        pending.append((index, started, ticket))
    while pending:
        settle_oldest()
    return latencies
