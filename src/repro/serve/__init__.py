"""Overload-safe serving layer for the repro workloads.

``repro.serve`` fronts the existing engines — simulate, estimate, grid
sweeps, cluster steps — with a long-running job service that *fails
closed* under load instead of degrading unpredictably:

* :mod:`repro.serve.queue` — the bounded priority queue (the only
  buffer, and a hard bound);
* :mod:`repro.serve.budget` — admission byte budgets over arena / RSS
  probes;
* :mod:`repro.serve.breaker` — deterministic per-(machine, engine)
  circuit breakers;
* :mod:`repro.serve.service` — admission control, deadline
  propagation, the degradation ladder (simulate -> estimate; repeats
  are served from the memo store before it), and hung-worker
  supervision;
* :mod:`repro.serve.shards` — the crash-safe multi-process shard pool
  (``shards=N``): WAL-backed leases, heartbeat supervision, kill -9
  absorption, orphan-lease recovery;
* :mod:`repro.serve.memo` — canonical content keys for every job kind
  plus the persistent content-addressed :class:`MemoStore` (cache hits
  bitwise-equal to cold execution, LRU byte-budget eviction), feeding
  the service's single-flight request coalescing;
* :mod:`repro.serve.adaptive` — adaptive overload control
  (``adaptive=...``): the AIMD concurrency limiter driven by per-kind
  latency SLOs, retry budgets bounding attempt amplification, hedged
  requests for stragglers, and deadline-aware brownout shedding;
* :mod:`repro.serve.chaos` — the seeded invariant-checked soak
  (``python -m repro.serve.chaos``; ``--shards --kill-rate`` arms
  process chaos, ``--duplicate-rate --memo`` arms the coalescing mix,
  ``--overload`` runs the 2x-load goodput/amplification soak).

See ``docs/resilience.md`` for the breaker state diagram, the
degradation ladder, the shard lifecycle, the WAL record format, and
the adaptive overload-control loop; ``docs/serving.md`` for key
derivation, eviction, and the coalescing state machine.
"""

from .adaptive import AdaptiveConfig, AdaptiveLimiter, LatencyTracker, RetryBudget
from .breaker import CLOSED, HALF_OPEN, OPEN, STATE_CODES, CircuitBreaker
from .budget import ByteBudget, process_rss_bytes
from .memo import MemoStore, canonical_job_key, memo_bytes
from .queue import BoundedPriorityQueue
from .service import (
    JOB_KINDS,
    JobOutcome,
    JobService,
    JobSpec,
    JobTicket,
    Rejected,
    serve_grid,
)
from .shards import (
    LeaseUnavailable,
    Shard,
    ShardOverBudget,
    ShardPool,
    replay_wal_state,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveLimiter",
    "LatencyTracker",
    "RetryBudget",
    "BoundedPriorityQueue",
    "ByteBudget",
    "process_rss_bytes",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "STATE_CODES",
    "JOB_KINDS",
    "JobSpec",
    "JobOutcome",
    "JobTicket",
    "JobService",
    "Rejected",
    "serve_grid",
    "MemoStore",
    "canonical_job_key",
    "memo_bytes",
    "Shard",
    "ShardPool",
    "LeaseUnavailable",
    "ShardOverBudget",
    "replay_wal_state",
]
