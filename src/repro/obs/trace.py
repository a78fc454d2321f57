"""Structured tracing: nestable spans, events, and counter samples.

Zero-dependency, process-global tracer built for the shared thread
pool: every thread records into its own shard (no lock on the hot
path), and a read merges the shards into one timeline keyed by
``(pid, tid)`` — exactly the structure Chrome's trace viewer and
Perfetto lay out as one lane per thread.

Contract with the rest of the harness:

* **Disabled is free.**  With no tracer installed, :func:`span`
  returns a shared no-op object and :func:`add_event` /
  :func:`counter_sample` return after one global read.  The execution
  layers can therefore instrument unconditionally.
* **Observation only.**  Spans never touch the data being computed;
  tracing on vs. off must leave every schedule result bitwise
  identical (enforced in ``tests/test_obs_integration.py``).
* **Monotonic time.**  Timestamps come from
  :func:`time.perf_counter_ns`, relative to the tracer's start — wall
  clock adjustments cannot fold a trace.

Usage::

    with tracing() as tracer:
        with span("grid.point", variant="series", box=128) as s:
            ...
            s.set_attr(model_time_s=r.time_s)
            add_event("retry", attempt=2)
    write_chrome_trace("out.json", tracer)   # repro.obs.export
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "SpanRecord",
    "EventRecord",
    "CounterSample",
    "Tracer",
    "Span",
    "tracing",
    "start_tracing",
    "stop_tracing",
    "tracing_enabled",
    "active_tracer",
    "span",
    "add_event",
    "counter_sample",
    "current_span_name",
]


@dataclass
class SpanRecord:
    """One completed span: a named, attributed slice of one thread's time."""

    name: str
    start_ns: int
    dur_ns: int
    pid: int
    tid: int
    span_id: str
    parent_id: str | None = None
    attrs: dict = field(default_factory=dict)


@dataclass
class EventRecord:
    """An instant event, attached to whichever span was open on its thread."""

    name: str
    ts_ns: int
    pid: int
    tid: int
    span_id: str | None = None
    span_name: str | None = None
    attrs: dict = field(default_factory=dict)


@dataclass
class CounterSample:
    """One (time, value) sample of a named counter track."""

    name: str
    ts_ns: int
    value: float
    pid: int


class _Shard:
    """One thread's private recording buffers (no locking on append)."""

    __slots__ = ("tid", "stack", "spans", "events", "samples", "next_id")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: Open spans: list of [name, start_ns, span_id, attrs_dict].
        self.stack: list[list] = []
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.samples: list[CounterSample] = []
        self.next_id = 0


class Tracer:
    """Collects spans/events/samples from every thread that reports."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.t0_ns = time.perf_counter_ns()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._shards: list[_Shard] = []

    # -- per-thread recording --------------------------------------------------------
    def _shard(self) -> _Shard:
        sh = getattr(self._tls, "shard", None)
        if sh is None:
            sh = _Shard(threading.get_native_id())
            self._tls.shard = sh
            with self._lock:
                self._shards.append(sh)
        return sh

    def _open(self, name: str, attrs: dict) -> None:
        sh = self._shard()
        sh.next_id += 1
        sh.stack.append(
            [name, time.perf_counter_ns(), f"{sh.tid}.{sh.next_id}", attrs]
        )

    def _close(self) -> None:
        sh = self._shard()
        name, start_ns, span_id, attrs = sh.stack.pop()
        parent_id = sh.stack[-1][2] if sh.stack else None
        sh.spans.append(
            SpanRecord(
                name=name,
                start_ns=start_ns - self.t0_ns,
                dur_ns=time.perf_counter_ns() - start_ns,
                pid=self.pid,
                tid=sh.tid,
                span_id=span_id,
                parent_id=parent_id,
                attrs=attrs,
            )
        )

    def event(self, name: str, **attrs) -> None:
        sh = self._shard()
        top = sh.stack[-1] if sh.stack else None
        sh.events.append(
            EventRecord(
                name=name,
                ts_ns=time.perf_counter_ns() - self.t0_ns,
                pid=self.pid,
                tid=sh.tid,
                span_id=top[2] if top else None,
                span_name=top[0] if top else None,
                attrs=attrs,
            )
        )

    def sample(self, name: str, value: float) -> None:
        self._shard().samples.append(
            CounterSample(
                name=name,
                ts_ns=time.perf_counter_ns() - self.t0_ns,
                value=float(value),
                pid=self.pid,
            )
        )

    # -- merged reads ----------------------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        """Every completed span, merged across threads, by start time."""
        with self._lock:
            shards = list(self._shards)
        out: list[SpanRecord] = []
        for sh in shards:
            out.extend(sh.spans)
        out.sort(key=lambda s: s.start_ns)
        return out

    def events(self) -> list[EventRecord]:
        with self._lock:
            shards = list(self._shards)
        out: list[EventRecord] = []
        for sh in shards:
            out.extend(sh.events)
        out.sort(key=lambda e: e.ts_ns)
        return out

    def samples(self) -> list[CounterSample]:
        with self._lock:
            shards = list(self._shards)
        out: list[CounterSample] = []
        for sh in shards:
            out.extend(sh.samples)
        out.sort(key=lambda s: s.ts_ns)
        return out

    def open_depth(self) -> int:
        """Open spans on the calling thread (for nesting assertions)."""
        return len(self._shard().stack)


class Span:
    """Context manager for one span; re-entrant per ``span()`` call."""

    __slots__ = ("_tracer", "_name", "_attrs")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "Span":
        self._tracer._open(self._name, self._attrs)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close()

    def set_attr(self, **attrs) -> None:
        """Merge attributes into the span (visible in the export)."""
        self._attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        self._tracer.event(name, **attrs)


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set_attr(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: The process-global tracer; ``None`` means tracing is off and every
#: entry point takes its one-read fast path.
_ACTIVE: Tracer | None = None
_ACTIVE_LOCK = threading.Lock()


def tracing_enabled() -> bool:
    """Cheap hot-path check: is a tracer installed?"""
    return _ACTIVE is not None


def active_tracer() -> Tracer | None:
    return _ACTIVE


def start_tracing() -> Tracer:
    """Install a fresh process-global tracer and return it."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = Tracer()
        return _ACTIVE


def stop_tracing() -> Tracer | None:
    """Uninstall the tracer; returns it (with its data) for export."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        t, _ACTIVE = _ACTIVE, None
    return t


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Scope tracing to a ``with`` block; restores the previous tracer."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        prev = _ACTIVE
        _ACTIVE = Tracer()
        t = _ACTIVE
    try:
        yield t
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = prev


def span(name: str, **attrs):
    """A span context manager (the shared no-op when tracing is off)."""
    t = _ACTIVE
    if t is None:
        return NOOP_SPAN
    return Span(t, name, attrs)


def add_event(name: str, **attrs) -> None:
    """Record an instant event on the current thread's open span."""
    t = _ACTIVE
    if t is not None:
        t.event(name, **attrs)


def counter_sample(name: str, value: float) -> None:
    """Record one sample of a counter track (exported as a ph="C" row)."""
    t = _ACTIVE
    if t is not None:
        t.sample(name, value)


def current_span_name() -> str | None:
    """Name of the innermost open span on this thread, if any."""
    t = _ACTIVE
    if t is None:
        return None
    sh = t._shard()
    return sh.stack[-1][0] if sh.stack else None
