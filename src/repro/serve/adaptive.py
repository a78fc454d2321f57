"""Adaptive overload control: AIMD concurrency, retry budgets, latency SLOs.

The admission front of :class:`~repro.serve.service.JobService` (byte
budget, bounded queue, breakers) is *static*: it bounds how much work
can wait, but not how much should run.  This module closes the feedback
loop the ROADMAP's "as fast as the hardware allows" goal requires — the
run-time analogue of choosing a tiling plan from *measured* conditions
rather than a static enumeration:

* :class:`LatencyTracker` — per-job-kind service-time statistics (EWMA
  and a windowed p95) fed by every completed execution.  Everything
  below keys off these observations.
* :class:`AdaptiveLimiter` — an AIMD concurrency limiter sitting
  between the bounded queue and the workers.  Completions under the
  latency SLO while the limiter is saturated probe the limit up
  additively (``+increase/limit`` per completion, ~one step per RTT
  window); an SLO breach or a deadline shed backs it off
  multiplicatively (floor ``min_limit``, never below 1).  A cooldown
  makes one burst of breaches cost one decrease, not one per breach.
  Every limit change is mirrored to the ``serve.adaptive.limit`` gauge
  through the ``on_change`` hook.
* :class:`RetryBudget` — a token bucket per ``(machine, engine)``
  scope consulted by the retry path.  Each *first* attempt deposits
  ``ratio`` tokens; each retry (and each hedge launch) spends one.
  Global attempt amplification is therefore provably bounded::

      attempts == units + spends <= units * (1 + ratio)

  since total deposits never exceed ``units * ratio`` and spends never
  exceed deposits (the bucket starts empty and is capped, which only
  tightens the bound).  A denied
  retry fails with the distinct kind ``"retry_budget"`` and is exempt
  from circuit-breaker counting — budget exhaustion is a load signal,
  not an engine fault.
* :class:`AdaptiveConfig` — the knob bundle
  :class:`~repro.serve.service.JobService` accepts (``adaptive=...``),
  also covering deadline-aware **brownout** shedding (refuse at
  admission any job whose deadline cannot cover the observed service
  time for its kind) and **hedged requests** (after the observed p95, a
  straggler's flight launches one speculative duplicate through the
  single-flight table; first completion wins, the loser is cancelled
  cooperatively and accounted ``hedge_lost``).

See ``docs/resilience.md`` ("Adaptive overload control") for the state
machine and the retry-budget math.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

__all__ = [
    "AdaptiveConfig",
    "AdaptiveLimiter",
    "LatencyTracker",
    "RetryBudget",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs for the adaptive overload-control loop (see module docs)."""

    #: Latency SLO applied to every job kind without an override.
    slo_ms: float = 100.0
    #: Per-kind SLO overrides, e.g. ``{"grid": 2000.0}``.
    slo_by_kind: Mapping[str, float] = field(default_factory=dict)
    min_limit: int = 1
    #: Ceiling for the limit; ``None`` means the service's worker count.
    max_limit: int | None = None
    #: Additive probe step per under-SLO completion at saturation
    #: (divided by the current limit, so ~one step per RTT window).
    increase: float = 1.0
    #: Multiplicative backoff factor on SLO breach or deadline shed.
    decrease: float = 0.5
    #: Minimum seconds between multiplicative decreases (one burst of
    #: breaches = one backoff).
    cooldown_s: float = 0.05
    #: Observations of a kind required before its estimate is trusted.
    min_samples: int = 5
    #: Deadline-aware brownout: shed at admission when the deadline
    #: cannot cover the observed service time.
    brownout: bool = True
    #: Launch one hedge per flight once the leader has been executing
    #: longer than ``hedge_factor * p95`` of its kind.
    hedge: bool = False
    hedge_factor: float = 1.0
    hedge_min_samples: int = 8
    #: Retry-budget token ratio; ``None`` disables retry budgets.
    retry_budget_ratio: float | None = None

    def __post_init__(self):
        if self.min_limit < 1:
            raise ValueError("min_limit must be >= 1")
        if self.max_limit is not None and self.max_limit < self.min_limit:
            raise ValueError("max_limit must be >= min_limit")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        if self.increase <= 0.0:
            raise ValueError("increase must be positive")
        if self.retry_budget_ratio is not None and self.retry_budget_ratio < 0:
            raise ValueError("retry_budget_ratio must be >= 0")

    def slo_s(self, kind: str) -> float:
        """The latency SLO for one job kind, in seconds."""
        return float(self.slo_by_kind.get(kind, self.slo_ms)) / 1000.0


class LatencyTracker:
    """Per-kind service-time statistics: EWMA mean and windowed p95.

    Fed by the service with every non-cached ``ok``/``degraded``
    execution; read by brownout admission (EWMA: "can this deadline
    cover a typical execution?") and by the hedging sweep (p95: "is
    this leader a straggler?").  Estimates are ``None`` until
    ``min_samples`` observations of the kind exist, so a cold service
    neither browns out nor hedges on noise.
    """

    def __init__(
        self, window: int = 64, alpha: float = 0.2, min_samples: int = 5
    ):
        if window < 4:
            raise ValueError("window must be >= 4")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.window = int(window)
        self.alpha = float(alpha)
        self.min_samples = max(1, int(min_samples))
        self._lock = threading.Lock()
        self._rings: dict[str, deque] = {}
        self._ewma: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def observe(self, kind: str, seconds: float) -> None:
        s = float(seconds)
        with self._lock:
            ring = self._rings.get(kind)
            if ring is None:
                ring = self._rings[kind] = deque(maxlen=self.window)
            ring.append(s)
            prev = self._ewma.get(kind)
            self._ewma[kind] = (
                s if prev is None else prev + self.alpha * (s - prev)
            )
            self._counts[kind] = self._counts.get(kind, 0) + 1

    def samples(self, kind: str) -> int:
        with self._lock:
            return self._counts.get(kind, 0)

    def ewma_s(self, kind: str) -> float | None:
        """Smoothed typical service time, or ``None`` below min_samples."""
        with self._lock:
            if self._counts.get(kind, 0) < self.min_samples:
                return None
            return self._ewma[kind]

    def p95_s(self, kind: str) -> float | None:
        """Windowed 95th-percentile service time (``None`` when cold)."""
        with self._lock:
            if self._counts.get(kind, 0) < self.min_samples:
                return None
            ring = sorted(self._rings[kind])
        # Nearest-rank p95 over the window (ring is never empty here).
        return ring[min(len(ring) - 1, int(0.95 * len(ring)))]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                kind: {
                    "samples": self._counts[kind],
                    "ewma_ms": round(self._ewma[kind] * 1e3, 3),
                }
                for kind in sorted(self._counts)
            }


class AdaptiveLimiter:
    """AIMD concurrency limiter between the bounded queue and the workers.

    Workers :meth:`acquire` a slot before dequeuing and :meth:`release`
    it after settling; :meth:`on_result` closes the loop from observed
    service time.  The limit is a float internally (so additive probes
    accumulate) and is applied as ``int(limit)`` with a hard floor of
    ``min_limit`` — the limiter can slow the service to one-at-a-time,
    never to a standstill.
    """

    def __init__(
        self,
        max_limit: int,
        min_limit: int = 1,
        increase: float = 1.0,
        decrease: float = 0.5,
        cooldown_s: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        on_change: Callable[[float], None] | None = None,
    ):
        if max_limit < min_limit or min_limit < 1:
            raise ValueError("need max_limit >= min_limit >= 1")
        self.min_limit = int(min_limit)
        self.max_limit = int(max_limit)
        self.increase = float(increase)
        self.decrease = float(decrease)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._on_change = on_change
        self._cond = threading.Condition()
        # Start wide open: the first breach backs off from the ceiling.
        self._limit = float(self.max_limit)
        self._inflight = 0
        self._last_backoff_at: float | None = None
        self.last_rtt_s = 0.0
        #: Lifetime stats (mutated under the condition's lock).
        self.backoffs = 0
        self.probes = 0
        self.acquired_total = 0

    @property
    def limit(self) -> int:
        """The concurrency cap currently in force."""
        with self._cond:
            return self._effective()

    @property
    def limit_raw(self) -> float:
        with self._cond:
            return self._limit

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def _effective(self) -> int:
        return max(self.min_limit, int(self._limit))

    def acquire(self, timeout: float | None = None) -> bool:
        """Take one execution slot, waiting up to ``timeout``."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while self._inflight >= self._effective():
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    if self._inflight < self._effective():
                        break
                    return False
            self._inflight += 1
            self.acquired_total += 1
            return True

    def release(self) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            self._cond.notify()

    # ------------------------------------------------------------- feedback
    def _backoff_locked(self) -> bool:
        now = self._clock()
        if (
            self._last_backoff_at is not None
            and now - self._last_backoff_at < self.cooldown_s
        ):
            return False
        self._last_backoff_at = now
        self._limit = max(float(self.min_limit), self._limit * self.decrease)
        self.backoffs += 1
        return True

    def on_result(self, rtt_s: float, ok: bool, breach: bool) -> None:
        """Feed one completed execution back into the loop.

        ``breach`` backs the limit off multiplicatively (cooldown
        permitting); an under-SLO success while the limiter is
        saturated probes it up additively.  Called by the worker
        *before* releasing its slot, so ``inflight`` still counts the
        caller when saturation is tested.
        """
        changed = False
        with self._cond:
            self.last_rtt_s = float(rtt_s)
            before = self._effective()
            if breach:
                changed = self._backoff_locked()
            elif ok and self._inflight >= self._effective():
                if self._limit < self.max_limit:
                    self._limit = min(
                        float(self.max_limit),
                        self._limit + self.increase / max(1.0, self._limit),
                    )
                    self.probes += 1
                    changed = True
            if self._effective() > before:
                self._cond.notify_all()
            new_limit = self._limit
        if changed and self._on_change is not None:
            self._on_change(new_limit)

    def on_shed(self) -> None:
        """A load-induced shed (deadline expired in queue): back off."""
        changed = False
        with self._cond:
            changed = self._backoff_locked()
            new_limit = self._limit
        if changed and self._on_change is not None:
            self._on_change(new_limit)

    def stats(self) -> dict:
        with self._cond:
            return {
                "limit": self._effective(),
                "limit_raw": round(self._limit, 3),
                "min_limit": self.min_limit,
                "max_limit": self.max_limit,
                "inflight": self._inflight,
                "backoffs": self.backoffs,
                "probes": self.probes,
                "acquired_total": self.acquired_total,
                "last_rtt_ms": round(self.last_rtt_s * 1e3, 3),
            }

    def __repr__(self) -> str:
        return (
            f"AdaptiveLimiter(limit={self.limit}, "
            f"inflight={self.inflight}, backoffs={self.backoffs})"
        )


class RetryBudget:
    """Token bucket bounding retry (and hedge) amplification for one scope.

    ``deposit()`` banks ``ratio`` tokens per first attempt (capped);
    ``try_spend()`` withdraws one whole token per speculative attempt —
    a retry or a hedge launch.  The bucket starts empty, so spends never
    exceed deposits and total attempts are bounded by ``units * (1 +
    ratio)``; :meth:`amplification_bound_ok` checks exactly that from
    the bucket's own lifetime counters.
    """

    def __init__(self, ratio: float = 0.1, cap: float = 20.0):
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.ratio = float(ratio)
        self.cap = float(cap)
        self._lock = threading.Lock()
        self._tokens = 0.0
        #: Lifetime counters (the amplification proof reads these).
        self.units = 0
        self.spent = 0
        self.denied = 0

    def deposit(self) -> None:
        """Bank one first attempt's worth of retry headroom."""
        with self._lock:
            self.units += 1
            self._tokens = min(self.cap, self._tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a speculative attempt, if affordable."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def amplification_bound_ok(self) -> bool:
        """``units + spent <= units * (1 + ratio)``."""
        with self._lock:
            return (
                self.units + self.spent
                <= self.units * (1.0 + self.ratio) + 1e-9
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "ratio": self.ratio,
                "cap": self.cap,
                "tokens": round(self._tokens, 3),
                "units": self.units,
                "spent": self.spent,
                "denied": self.denied,
            }

    def __repr__(self) -> str:
        return (
            f"RetryBudget(ratio={self.ratio}, tokens={self.tokens():.2f}, "
            f"units={self.units}, spent={self.spent}, denied={self.denied})"
        )
