"""Numerical watchdog: NaN/Inf scans, bitwise checks, and heartbeats.

The paper's validation contract is that every schedule variant is a
pure reordering — bitwise-identical output to the reference kernel.
The watchdog enforces that contract at runtime:

* :func:`is_finite_result` / :func:`scan_level` — post-task NaN/Inf
  scans of simulator results and level data;
* :func:`verify_variants_bitwise` — run a set of variants (threaded),
  compare each against the reference schedule bitwise, *quarantine*
  divergent variants, re-run each quarantined variant once serially,
  and report what recovered;
* :class:`Heartbeat` / :class:`HeartbeatMonitor` — *liveness*
  watchdogging for long-running workers (:mod:`repro.serve`): a worker
  stamps a heartbeat when it picks up a task, and a supervisor asks
  the monitor which workers have been busy on one task longer than a
  hang budget (a ``stall`` fault is how tests produce such a task).

``run_schedule_parallel`` and ``run_grid`` consult the scan helpers
directly (only when a fault plan is active or explicitly requested, so
the happy path pays nothing).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..box.leveldata import LevelData
from ..machine.simulator import SimResult
from ..schedules.base import Variant
from .retry import TaskFailure

__all__ = [
    "is_finite_result",
    "scan_level",
    "WatchdogReport",
    "verify_variants_bitwise",
    "Heartbeat",
    "HeartbeatMonitor",
]


def is_finite_result(r: SimResult) -> bool:
    """True when every numeric field of a simulator result is finite."""
    scalars = (r.time_s, r.flops, r.dram_bytes)
    return all(map(math.isfinite, scalars)) and all(
        map(math.isfinite, r.phase_times)
    )


def scan_level(ld: LevelData) -> bool:
    """True when every valid cell of a level is finite."""
    for i in ld.layout:
        box = ld.layout.box(i)
        if not np.all(np.isfinite(ld[i].window(box))):
            return False
    return True


@dataclass
class WatchdogReport:
    """Outcome of a cross-variant bitwise-identity sweep."""

    reference: str
    checked: list[str] = field(default_factory=list)
    #: Variants whose threaded run diverged from the reference.
    divergent: list[str] = field(default_factory=list)
    #: Divergent variants re-run serially that then matched.
    recovered: list[str] = field(default_factory=list)
    failures: list[TaskFailure] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No *unrecovered* failures (quarantine re-runs may have healed)."""
        return all(f.recovered for f in self.failures)

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "checked": list(self.checked),
            "divergent": list(self.divergent),
            "recovered": list(self.recovered),
            "failures": [f.to_dict() for f in self.failures],
        }


class Heartbeat:
    """One worker's liveness record (written by the worker, read anywhere).

    The worker calls :meth:`start` when it begins a task, :meth:`beat`
    at safe points during it, and :meth:`clear` when the task settles.
    :meth:`busy_for` is the supervisor's view: how long the *current*
    task has been running, or ``None`` when the worker is idle.
    """

    __slots__ = ("name", "_lock", "_clock", "_task_label", "_task_since",
                 "_last_beat", "beats", "tasks_started")

    def __init__(self, name: str, clock: Callable[[], float] = time.monotonic):
        self.name = name
        self._lock = threading.Lock()
        self._clock = clock
        self._task_label: str | None = None
        self._task_since: float | None = None
        self._last_beat: float = clock()
        self.beats = 0
        self.tasks_started = 0

    def start(self, label: str) -> None:
        with self._lock:
            self._task_label = label
            self._task_since = self._clock()
            self._last_beat = self._task_since
            self.tasks_started += 1

    def beat(self) -> None:
        with self._lock:
            self._last_beat = self._clock()
            self.beats += 1

    def clear(self) -> None:
        with self._lock:
            self._task_label = None
            self._task_since = None
            self._last_beat = self._clock()

    def busy_for(self) -> float | None:
        """Seconds the current task has run, or None when idle."""
        with self._lock:
            if self._task_since is None:
                return None
            return self._clock() - self._task_since

    @property
    def task_label(self) -> str | None:
        with self._lock:
            return self._task_label


class HeartbeatMonitor:
    """Registry of worker heartbeats with hung-task detection.

    ``hung(timeout_s)`` returns the workers whose *current* task has
    been running longer than the budget — the supervisor's trigger to
    abandon the task and replace the worker.  Registration is keyed by
    worker name; replacing a worker re-registers under a fresh name so
    the wedged predecessor's heartbeat cannot mask the replacement's.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._beats: dict[str, Heartbeat] = {}

    def register(self, name: str) -> Heartbeat:
        hb = Heartbeat(name, clock=self._clock)
        with self._lock:
            if name in self._beats:
                raise ValueError(f"worker {name!r} already registered")
            self._beats[name] = hb
        return hb

    def unregister(self, name: str) -> None:
        with self._lock:
            self._beats.pop(name, None)

    def heartbeats(self) -> list[Heartbeat]:
        with self._lock:
            return list(self._beats.values())

    def hung(self, timeout_s: float) -> list[tuple[Heartbeat, float]]:
        """(heartbeat, busy seconds) of every worker over the hang budget."""
        out: list[tuple[Heartbeat, float]] = []
        for hb in self.heartbeats():
            busy = hb.busy_for()
            if busy is not None and busy > timeout_s:
                out.append((hb, busy))
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._beats)


def verify_variants_bitwise(
    variants,
    phi0: LevelData,
    threads: int = 2,
) -> WatchdogReport:
    """Check each variant's threaded output bitwise against the serial
    series schedule, the reference every variant must reproduce.

    Divergent variants are quarantined and re-run once serially (via
    the serial schedule executor); a quarantined variant that then
    matches is reported as recovered, otherwise it lands in the
    report's failure manifest.  The threaded runs go through
    ``run_schedule_parallel`` with its own self-healing disabled, so
    this function sees raw divergence.
    """
    from ..parallel.pool import run_schedule_parallel
    from ..schedules.level import run_schedule_on_level

    ref_variant = Variant("series", "P>=Box", "CLO")
    ref = run_schedule_on_level(ref_variant, phi0).to_global_array()
    report = WatchdogReport(reference=ref_variant.short_name)
    for variant in variants:
        name = variant.short_name
        report.checked.append(name)
        try:
            r = run_schedule_parallel(
                variant, phi0, threads, watchdog=False, fallback=False
            )
            arr = r.phi1.to_global_array()
        except Exception as exc:  # noqa: BLE001 - quarantine anything
            arr = None
            error = repr(exc)
        if arr is not None and np.array_equal(arr, ref):
            continue
        # Quarantine: one serial re-run, then judge.
        report.divergent.append(name)
        serial = run_schedule_on_level(variant, phi0).to_global_array()
        if np.array_equal(serial, ref):
            report.recovered.append(name)
            report.failures.append(
                TaskFailure(
                    scope="pool",
                    index=None,
                    label=name,
                    kind="divergent",
                    error="threaded run diverged from reference"
                    if arr is not None
                    else error,
                    recovered=True,
                    degraded_to="serial",
                )
            )
        else:
            report.failures.append(
                TaskFailure(
                    scope="pool",
                    index=None,
                    label=name,
                    kind="divergent",
                    error="variant diverges from reference even serially",
                )
            )
    return report
