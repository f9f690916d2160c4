"""Property tests for the admission controller and the bounded queue.

Hypothesis drives the :class:`~repro.serve.concurrent.AdmissionController`
through randomized workloads and checks the three invariants the
concurrent engine is built on:

* reservations **never** exceed modelled HBM capacity (``high_water``
  is the witness);
* admission order is **FIFO within a priority**, higher priorities
  first (checked by forcing one-at-a-time admission so the order is
  observable);
* **cancellation always releases** — no mix of cancel-while-waiting,
  cancel-while-admitted and plain release can leak a reservation.

Kept separate from test_concurrent.py so the CI concurrency-smoke job
can run the stress tests without the hypothesis dependency.
"""

from __future__ import annotations

import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.serve import AsyncEngine, BackpressureError, EngineSession  # noqa: E402
from repro.serve.concurrent import (  # noqa: E402
    AdmissionController,
    QueryCancelled,
)
from repro.serve.scheduler import AdmissionError  # noqa: E402
from repro.tpch import generate_tpch  # noqa: E402

CAPACITY = 1000
COMMON = settings(deadline=None, max_examples=25)


def start_all(threads, timeout=30.0):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "admission deadlocked"


class TestNeverOverCapacity:
    @COMMON
    @given(
        sizes=st.lists(
            st.integers(min_value=1, max_value=CAPACITY),
            min_size=1, max_size=12,
        )
    )
    def test_high_water_never_exceeds_capacity(self, sizes):
        controller = AdmissionController(CAPACITY)

        def admit_and_release(nbytes):
            ticket = controller.wait(controller.enqueue(nbytes))
            # hold briefly so reservations genuinely overlap
            threading.Event().wait(0.001)
            controller.release(ticket)

        start_all([
            threading.Thread(target=admit_and_release, args=(n,))
            for n in sizes
        ])
        assert controller.high_water <= CAPACITY
        assert controller.in_use == 0
        assert controller.waiting == 0
        assert controller.admitted_count == len(sizes)

    @COMMON
    @given(nbytes=st.integers(min_value=CAPACITY + 1, max_value=CAPACITY * 10))
    def test_oversized_request_rejected_and_leaves_no_waiter(self, nbytes):
        controller = AdmissionController(CAPACITY)
        with pytest.raises(AdmissionError):
            controller.enqueue(nbytes)
        assert controller.waiting == 0
        assert controller.in_use == 0


class TestFifoFairness:
    @COMMON
    @given(
        priorities=st.lists(
            st.integers(min_value=0, max_value=2), min_size=2, max_size=10,
        )
    )
    def test_admission_order_is_priority_then_arrival(self, priorities):
        """One-at-a-time admission makes the service order observable:
        it must be exactly ``(priority desc, arrival seq)``."""
        controller = AdmissionController(CAPACITY)
        # everyone below must queue
        blocker = controller.wait(controller.enqueue(CAPACITY))
        tickets = [
            controller.enqueue(CAPACITY, priority=p) for p in priorities
        ]
        order = []
        order_lock = threading.Lock()

        def waiter(ticket):
            controller.wait(ticket)
            # full-capacity requests serialize: recording before release
            # is atomic with respect to the next admission
            with order_lock:
                order.append(ticket.seq)
            controller.release(ticket)

        threads = [
            threading.Thread(target=waiter, args=(t,)) for t in tickets
        ]
        for t in threads:
            t.start()
        controller.release(blocker)
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        expected = [
            t.seq for t in sorted(tickets, key=lambda t: (-t.priority, t.seq))
        ]
        assert order == expected
        assert controller.in_use == 0


class TestCancellationReleases:
    @COMMON
    @given(
        plan=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=CAPACITY),
                st.booleans(),  # cancel this one while it waits?
            ),
            min_size=1, max_size=10,
        )
    )
    def test_cancel_while_waiting_never_leaks(self, plan):
        controller = AdmissionController(CAPACITY)
        blocker = controller.wait(controller.enqueue(CAPACITY))
        tickets = [controller.enqueue(n) for n, _ in plan]
        outcomes = {}
        outcome_lock = threading.Lock()

        def waiter(ticket):
            try:
                controller.wait(ticket)
                controller.release(ticket)
                result = "admitted"
            except QueryCancelled:
                result = "cancelled"
            with outcome_lock:
                outcomes[ticket.seq] = result

        threads = [
            threading.Thread(target=waiter, args=(t,)) for t in tickets
        ]
        for t in threads:
            t.start()
        for ticket, (_, cancel) in zip(tickets, plan):
            if cancel:
                controller.cancel(ticket)
        controller.release(blocker)
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert controller.in_use == 0
        assert controller.waiting == 0
        # a cancel that raced ahead of admission must report cancelled
        for ticket, (_, cancel) in zip(tickets, plan):
            if not cancel:
                assert outcomes[ticket.seq] == "admitted"

    @COMMON
    @given(sizes=st.lists(
        st.integers(min_value=1, max_value=CAPACITY // 2),
        min_size=1, max_size=8,
    ))
    def test_cancel_after_admission_releases_reservation(self, sizes):
        controller = AdmissionController(CAPACITY * 10)
        tickets = [controller.wait(controller.enqueue(n)) for n in sizes]
        assert controller.in_use == sum(sizes)
        for ticket in tickets:
            controller.cancel(ticket)
        assert controller.in_use == 0
        # release after cancel is a no-op, never a double decrement
        for ticket in tickets:
            controller.release(ticket)
        assert controller.in_use == 0

    def test_timeout_removes_waiter(self):
        from repro.serve import DeadlineExceeded

        controller = AdmissionController(CAPACITY)
        blocker = controller.wait(controller.enqueue(CAPACITY))
        starved = controller.enqueue(1)
        with pytest.raises(DeadlineExceeded):
            controller.wait(starved, timeout=0.01)
        assert controller.waiting == 0
        controller.release(blocker)
        assert controller.in_use == 0


class TestBoundedQueue:
    @pytest.fixture(scope="class")
    def session(self):
        with EngineSession(generate_tpch(0.01)) as session:
            yield session

    @COMMON
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        attempts=st.integers(min_value=1, max_value=20),
    )
    def test_queue_never_grows_past_capacity(self, session, capacity, attempts):
        engine = AsyncEngine(
            session, workers=1, queue_capacity=capacity, autostart=False,
        )
        accepted, rejected = 0, 0
        for _ in range(attempts):
            try:
                engine.submit("SELECT count(*) AS c FROM region")
                accepted += 1
            except BackpressureError as exc:
                rejected += 1
                assert exc.retry_after_s > 0
            assert len(engine._pending) <= capacity
        assert accepted == min(attempts, capacity)
        assert rejected == attempts - accepted
        engine.shutdown(drain=False, timeout=10.0)
        assert engine._pending == []
