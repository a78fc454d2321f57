"""Deterministic fault injection for the execution layers.

A :class:`FaultPlan` decides, for a given execution *site* — an
execution scope (``"pool"`` task, ``"grid"`` point, ``"estimate"`` /
``"simulate"`` engine call) plus a task index and label — whether a
fault fires there and what kind:

* ``raise`` — the site raises :class:`FaultInjected` *before* any work
  runs (so the site's own mutations never happen and an inline retry
  is always safe);
* ``stall`` — the site sleeps ``stall_s`` seconds before running,
  exercising deadline/timeout paths;
* ``corrupt`` — the site's *output* is poisoned (a value flipped to
  NaN) after it completes, exercising the numerical watchdog;
* ``kill`` — the **process-level** fault family: the hosting process
  SIGKILLs *itself* at the site, before any work runs.  Only the shard
  children of :mod:`repro.serve.shards` honor it (via
  :func:`die_if_planned`); thread-scope consumers filter it out, so a
  kill fault can never take down the supervisor process that injected
  it.

Plans are seeded and consumed site-by-site under a lock, so a test (or
a CI run with ``REPRO_FAULT_SEED``) gets the same faults every time.
Every ``take`` decrements a budget: a fault with ``count=1`` fires
once and then the retry that follows sees a clean site.

The active plan is process-global.  ``faults.plan_active()`` is a
single attribute read, and every hook in the execution layers checks
it first — with no plan installed the whole subsystem costs one
``is not None`` per call site.

Environment bootstrap: setting ``REPRO_FAULT_SEED=<int>`` installs a
:class:`RandomFaultPlan` at import time (rate from
``REPRO_FAULT_RATE``, default 0.02) over the recoverable scopes — CI
uses this to sweep the retry/degradation paths under the normal test
suite.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "SCOPES",
    "MODES",
    "THREAD_MODES",
    "PROCESS_MODES",
    "Fault",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "RandomFaultPlan",
    "plan_active",
    "active_plan",
    "set_fault_plan",
    "inject_faults",
    "take",
    "perturb",
    "take_corrupt",
    "take_kill",
    "die_if_planned",
]

#: Execution scopes faults can address.  ``serve`` addresses job
#: attempts inside :mod:`repro.serve` workers (a ``stall`` there is how
#: the hung-worker supervision path is exercised); ``shard`` addresses
#: job executions inside shard *child processes* (the only scope where
#: ``kill`` faults make sense).
SCOPES = ("pool", "grid", "estimate", "simulate", "serve", "shard")
#: Fault modes (thread-level plus the process-level ``kill`` family).
MODES = ("raise", "stall", "corrupt", "kill")
#: Modes safe to fire on a thread inside a process that must survive.
THREAD_MODES = ("raise", "stall", "corrupt")
#: Modes that destroy the hosting process.
PROCESS_MODES = ("kill",)


class FaultInjected(RuntimeError):
    """Raised by an injected ``raise``-mode fault, before any work ran."""

    def __init__(self, scope: str, index: int | None, label: str = ""):
        super().__init__(f"injected fault at {scope}[{index}] {label!r}")
        self.scope = scope
        self.index = index
        self.label = label


@dataclass(frozen=True)
class Fault:
    """What a plan hands back when a site is faulted."""

    mode: str
    stall_s: float = 0.0


@dataclass
class FaultSpec:
    """One addressable fault in an explicit plan.

    ``index=None`` matches any task index; ``label`` (substring match)
    narrows to sites whose label contains it.  ``count`` is the firing
    budget — after it is spent the site behaves normally, which is what
    makes retry ladders testable.
    """

    scope: str
    mode: str
    index: int | None = None
    label: str | None = None
    count: int = 1
    stall_s: float = 0.05
    fired: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")

    def matches(self, scope: str, index: int | None, label: str) -> bool:
        if scope != self.scope:
            return False
        if self.index is not None and index != self.index:
            return False
        if self.label is not None and self.label not in label:
            return False
        return True


class FaultPlan:
    """An explicit, ordered set of :class:`FaultSpec`\\ s."""

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = ()):
        self.specs = list(specs)
        self._lock = threading.Lock()

    def take(
        self,
        scope: str,
        index: int | None = None,
        label: str = "",
        modes: tuple[str, ...] = MODES,
    ) -> Fault | None:
        """Consume and return the fault at this site, if any."""
        with self._lock:
            for spec in self.specs:
                if spec.mode not in modes:
                    continue
                if spec.fired >= spec.count:
                    continue
                if spec.matches(scope, index, label):
                    spec.fired += 1
                    return Fault(spec.mode, spec.stall_s)
        return None


class RandomFaultPlan(FaultPlan):
    """Seeded pseudo-random faults at a given per-site rate.

    Whether a site is faulted — and with which mode — is a pure
    function of ``(seed, scope, index, label)``, so a re-run of the
    same program sees the same faults.  Each site fires at most once
    per process (the retry that follows must be able to succeed).
    """

    def __init__(
        self,
        seed: int,
        rate: float = 0.02,
        scopes: tuple[str, ...] = ("pool", "grid"),
        modes: tuple[str, ...] = THREAD_MODES,
        stall_s: float = 0.01,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        super().__init__()
        self.seed = int(seed)
        self.rate = float(rate)
        self.scopes = tuple(scopes)
        self.modes = tuple(modes)
        self.stall_s = float(stall_s)
        self._spent: set[tuple] = set()

    def _site_hash(self, scope: str, index: int | None, label: str) -> int:
        text = f"{self.seed}:{scope}:{index}:{label}"
        return zlib.crc32(text.encode())

    def take(
        self,
        scope: str,
        index: int | None = None,
        label: str = "",
        modes: tuple[str, ...] = MODES,
    ) -> Fault | None:
        if scope not in self.scopes:
            return None
        h = self._site_hash(scope, index, label)
        if (h % 100_000) / 100_000.0 >= self.rate:
            return None
        mode = self.modes[(h >> 17) % len(self.modes)]
        if mode not in modes:
            return None
        site = (scope, index, label)
        with self._lock:
            if site in self._spent:
                return None
            self._spent.add(site)
        return Fault(mode, self.stall_s)


# ------------------------------------------------------------ global plan
_ACTIVE: FaultPlan | None = None
_LOCK = threading.Lock()


def plan_active() -> bool:
    """Cheap hot-path check: is any fault plan installed?"""
    return _ACTIVE is not None


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or clear) the process-global plan; returns the old one."""
    global _ACTIVE
    with _LOCK:
        old, _ACTIVE = _ACTIVE, plan
    return old


@contextmanager
def inject_faults(plan: FaultPlan):
    """Scope a fault plan to a ``with`` block (restores the previous)."""
    old = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(old)


def take(
    scope: str,
    index: int | None = None,
    label: str = "",
    modes: tuple[str, ...] = MODES,
) -> Fault | None:
    """Consume the active plan's fault at this site, if any.

    A consumed fault is also recorded as a ``fault.injected`` span
    event on the current trace (kind, site, stall length), so a traced
    fault drill shows exactly where the plan fired.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    fault = plan.take(scope, index, label, modes=modes)
    if fault is not None:
        from ..obs import trace as _trace

        _trace.add_event(
            "fault.injected",
            scope=scope,
            index=index,
            label=label,
            mode=fault.mode,
            stall_s=fault.stall_s if fault.mode == "stall" else 0.0,
        )
    return fault


def perturb(scope: str, index: int | None = None, label: str = "") -> None:
    """Apply a raise/stall fault at this site (corrupt is output-side).

    Raises :class:`FaultInjected` for ``raise`` mode — callers are
    guaranteed no work ran yet — or sleeps for ``stall`` mode.
    """
    f = take(scope, index, label, modes=("raise", "stall"))
    if f is None:
        return
    if f.mode == "stall":
        time.sleep(f.stall_s)
        return
    raise FaultInjected(scope, index, label)


def take_corrupt(scope: str, index: int | None = None, label: str = "") -> bool:
    """True if a corrupt-mode fault fires at this site (consumed)."""
    return take(scope, index, label, modes=("corrupt",)) is not None


def take_kill(scope: str, index: int | None = None, label: str = "") -> bool:
    """True if a kill-mode fault fires at this site (consumed).

    Split from :func:`die_if_planned` so tests can observe the decision
    without dying; the trace event is emitted (and the budget spent) by
    the shared :func:`take` path either way.
    """
    return take(scope, index, label, modes=PROCESS_MODES) is not None


def die_if_planned(scope: str, index: int | None = None, label: str = "") -> None:
    """SIGKILL the *current process* if a kill fault is planned here.

    The process-level fault family: no exception, no cleanup, no
    ``finally`` blocks — the exact failure mode of an OOM kill or a
    segfault, which is what the shard supervision layer must absorb.
    Fires before any work runs, so a re-dispatch of the same job on a
    fresh shard is always safe.  Only ever call this from a process
    whose death is supervised (a shard child), never the supervisor.
    """
    if take_kill(scope, index, label):
        import signal

        os.kill(os.getpid(), signal.SIGKILL)


# ------------------------------------------------- environment bootstrap
def _bootstrap_from_env() -> None:
    seed = os.environ.get("REPRO_FAULT_SEED")
    if not seed:
        return
    try:
        seed_i = int(seed)
    except ValueError:
        return
    rate = float(os.environ.get("REPRO_FAULT_RATE", "0.02"))
    set_fault_plan(RandomFaultPlan(seed_i, rate=rate))


_bootstrap_from_env()
