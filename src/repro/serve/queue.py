"""Bounded priority queue: the service's only buffer, and a hard bound.

The overload contract is *fail closed*: work the queue cannot hold is
rejected at the door (:meth:`BoundedPriorityQueue.offer` returns
``False``), never silently buffered.  The queue therefore:

* holds at most ``limit`` items, ever — ``high_water`` records the
  deepest it got, and the chaos soak asserts it never exceeded the
  bound;
* serves strictly by ``(priority, arrival)``: higher ``priority``
  values first, FIFO within a priority (a monotonic sequence number
  breaks ties, so ordering is deterministic);
* supports a cooperative shutdown: :meth:`close` wakes every blocked
  taker, after which :meth:`take` drains what is left and then returns
  ``None``, and further offers are refused.

The queue knows nothing about jobs, deadlines, or budgets — those are
admission-control concerns layered on top by
:class:`repro.serve.service.JobService`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Generic, TypeVar

__all__ = ["BoundedPriorityQueue"]

T = TypeVar("T")


class BoundedPriorityQueue(Generic[T]):
    """A strictly bounded, strictly ordered handoff queue."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = int(limit)
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._heap: list[tuple[int, int, T]] = []
        self._seq = itertools.count()
        self._closed = False
        #: Lifetime stats (mutated under the mutex).
        self.offered = 0
        self.refused = 0
        self.high_water = 0

    def offer(self, item: T, priority: int = 0) -> bool:
        """Admit ``item`` if there is room; never blocks.

        Returns ``False`` — the caller must shed the work — when the
        queue is full or closed.  Higher ``priority`` dequeues first.
        """
        with self._mutex:
            self.offered += 1
            if self._closed or len(self._heap) >= self.limit:
                self.refused += 1
                return False
            heapq.heappush(self._heap, (-priority, next(self._seq), item))
            if len(self._heap) > self.high_water:
                self.high_water = len(self._heap)
            self._not_empty.notify()
            return True

    def take(self, timeout: float | None = None) -> T | None:
        """The highest-priority item, blocking up to ``timeout``.

        Returns ``None`` on timeout, or immediately once the queue is
        closed *and* drained.
        """
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    return None
            return heapq.heappop(self._heap)[2]

    def close(self) -> None:
        """Refuse further offers and wake every blocked taker."""
        with self._mutex:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._mutex:
            return self._closed

    def depth(self) -> int:
        with self._mutex:
            return len(self._heap)

    def __len__(self) -> int:
        return self.depth()

    def stats(self) -> dict:
        with self._mutex:
            return {
                "limit": self.limit,
                "depth": len(self._heap),
                "high_water": self.high_water,
                "offered": self.offered,
                "refused": self.refused,
                "closed": self._closed,
            }
