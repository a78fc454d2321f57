"""Bounded priority queue: bound, ordering, close semantics."""

import threading

import pytest

from repro.serve.queue import BoundedPriorityQueue


class TestBound:
    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(0)

    def test_offer_refused_at_limit(self):
        q = BoundedPriorityQueue(2)
        assert q.offer("a") and q.offer("b")
        assert not q.offer("c")
        assert q.depth() == 2
        s = q.stats()
        assert s["offered"] == 3 and s["refused"] == 1

    def test_high_water_never_exceeds_limit(self):
        q = BoundedPriorityQueue(3)
        for i in range(10):
            q.offer(i)
        assert q.high_water <= q.limit == 3

    def test_room_after_take(self):
        q = BoundedPriorityQueue(1)
        assert q.offer("a")
        assert not q.offer("b")
        assert q.take() == "a"
        assert q.offer("b")


class TestOrdering:
    def test_higher_priority_first(self):
        q = BoundedPriorityQueue(8)
        q.offer("low", priority=0)
        q.offer("high", priority=5)
        q.offer("mid", priority=2)
        assert [q.take() for _ in range(3)] == ["high", "mid", "low"]

    def test_fifo_within_priority(self):
        q = BoundedPriorityQueue(8)
        for name in ("first", "second", "third"):
            q.offer(name, priority=1)
        assert [q.take() for _ in range(3)] == ["first", "second", "third"]


class TestTakeAndClose:
    def test_take_timeout_returns_none(self):
        q = BoundedPriorityQueue(2)
        assert q.take(timeout=0.01) is None

    def test_close_refuses_offers(self):
        q = BoundedPriorityQueue(2)
        q.close()
        assert not q.offer("a")
        assert q.closed

    def test_close_wakes_blocked_taker(self):
        q = BoundedPriorityQueue(2)
        got = []
        t = threading.Thread(target=lambda: got.append(q.take(timeout=5.0)))
        t.start()
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert got == [None]

    def test_closed_queue_drains_remaining(self):
        q = BoundedPriorityQueue(4)
        q.offer("a")
        q.offer("b")
        q.close()
        assert q.take() == "a"
        assert q.take() == "b"
        assert q.take() is None
