"""AsyncEngine: real concurrent execution over one shared session.

The load-bearing assertions of the concurrency PR:

* the 10-query paper mix, run for several rounds at 2-8 workers,
  produces **bit-identical rows** to a solo run (compared by ``repr``
  so NaN aggregates compare equal);
* at **one worker** the threaded engine's modelled totals and
  placement are bit-identical to the inline (zero-thread) drain, on a
  solo session and on a sharded one;
* drains always complete inside a hard timeout (the deadlock guard —
  ``drain`` returning False *is* the failure, not a hang);
* after a drain the admission ledger, raw allocations and pool tails
  all balance: nothing leaks across queries or workers.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serve import (
    AsyncEngine,
    BackpressureError,
    EngineSession,
    ThreadGuard,
    paper_mix_statements,
)
from repro.tpch import generate_tpch

SCALE = 0.05
DRAIN_TIMEOUT = 120.0  # hard ceiling: a hang fails fast, not forever
ROUNDS = 4


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


@pytest.fixture(scope="module")
def solo_baseline(catalog):
    """Rows + modelled totals of the paper mix on a solo session."""
    with EngineSession(catalog) as session:
        report = AsyncEngine(session, workers=1, autostart=False).run_batch(
            paper_mix_statements()
        )
    assert len(report.completed) == 10
    return (
        [repr(q.result.rows) for q in report.queries],
        [repr(q.result.stats.total_ns) for q in report.queries],
    )


class TestStressBitIdentity:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_paper_mix_rows_bit_identical_across_rounds(
        self, catalog, solo_baseline, workers,
    ):
        solo_rows, _ = solo_baseline
        statements = paper_mix_statements()
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=workers,
                                 queue_capacity=256)
            try:
                for round_no in range(ROUNDS):
                    tickets = engine.submit_all(statements)
                    assert engine.drain(timeout=DRAIN_TIMEOUT), (
                        f"deadlock: round {round_no} did not drain"
                    )
                    assert [t.status for t in tickets] == ["done"] * 10
                    rows = [repr(t.result.rows) for t in tickets]
                    assert rows == solo_rows, f"round {round_no} diverged"
                    # admission ledger balances after every drain
                    assert engine.admission.in_use == 0
                    assert engine.admission.waiting == 0
            finally:
                engine.shutdown(drain=False, timeout=10.0)
        report = engine.report()
        assert len(report.completed) == ROUNDS * 10
        assert report.makespan_ns < report.serial_ns  # streams overlap

    def test_accounting_balances_after_drain(self, catalog):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=4)
            engine.submit_all(paper_mix_statements())
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
            # per-query state is rewound: raw allocs freed, pool tails zero
            assert session.states[0].raw_alloc.outstanding == 0
            assert all(
                pool.tail == 0 for pool in (
                    session.states[0].pools.meta,
                    session.states[0].pools.intermediate,
                    session.states[0].pools.inter_kernel,
                )
            )
            # standing state (residency) is bounded by device capacity
            assert session.states[0].residency.resident_bytes <= (
                session.device_capacity_bytes
            )
            session.close()
            # ...and closing the session returns every byte
            assert session.device.memory_in_use == 0

    def test_guard_sees_no_violations_under_load(self, catalog, thread_guard):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(
                session, workers=4, guard=thread_guard,
            )
            engine.submit_all(paper_mix_statements() * 2)
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        assert thread_guard.checks > 0
        assert thread_guard.violations == 0


class TestSoloParity:
    def test_one_worker_modelled_totals_match_scheduler(
        self, catalog, solo_baseline,
    ):
        """One worker thread is the inline drain, bit for bit."""
        solo_rows, solo_totals = solo_baseline
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=1)
            tickets = engine.submit_all(paper_mix_statements())
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        assert [repr(t.result.stats.total_ns) for t in tickets] == solo_totals
        assert [repr(t.result.rows) for t in tickets] == solo_rows
        report = engine.report()
        assert [q.stream for q in report.completed] == [0] * 10

    @staticmethod
    def inline_and_threaded(catalog, **session_kwargs):
        """The paper mix on one stream, drained inline and by a thread."""
        statements = paper_mix_statements()
        with EngineSession(catalog, **session_kwargs) as session:
            inline = AsyncEngine(
                session, workers=1, autostart=False,
            ).run_batch(statements)
        with EngineSession(catalog, **session_kwargs) as session:
            engine = AsyncEngine(session, workers=1)
            threaded = engine.run_batch(statements, timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        assert threaded is not None, "deadlock: batch did not drain"
        assert len(inline.completed) == len(threaded.completed) == 10
        for a, b in zip(inline.queries, threaded.queries):
            assert a.stream == b.stream == 0
            assert repr(a.start_ns) == repr(b.start_ns)
            assert repr(a.duration_ns) == repr(b.duration_ns)
            assert repr(a.result.stats.total_ns) == repr(
                b.result.stats.total_ns
            )
        return inline, threaded

    # the pins below are repr(makespan_ns), repr(bus_ns) captured from
    # the modelled QueryScheduler that the inline drain replaced

    def test_one_worker_placement_matches_scheduler(self, catalog):
        for report in self.inline_and_threaded(catalog):
            assert repr(report.makespan_ns) == "1427298.8531770185"
            assert repr(report.bus_ns) == "3279.666666666667"
            for query in report.queries:
                assert query.result.makespan_ns is None
                assert query.result.group_report is None
                assert query.duration_ns == query.result.stats.total_ns

    def test_sharded_one_worker_placement_matches_inline(self, catalog):
        """Regression: the threaded engine timed a sharded query by the
        sum over devices and the group-merged bus (3.7x / 4x apart from
        the inline numbers) instead of the group makespan and the
        busiest PCIe link."""
        for report in self.inline_and_threaded(
            catalog, shards=4, interconnect="nvlink",
        ):
            assert repr(report.makespan_ns) == "1452302.0623983727"
            assert repr(report.bus_ns) == "1979.166666666667"
            for query in report.queries:
                assert query.duration_ns == query.result.makespan_ns
                assert query.duration_ns < query.result.stats.total_ns


class TestLifecycle:
    def test_deadline_cancels_queued_query(self, catalog):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=1, autostart=False)
            ticket = engine.submit(paper_mix_statements()[0], deadline_s=0.0)
            engine.start()
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        assert ticket.status == "cancelled"
        assert "deadline" in ticket.detail
        assert ticket.result is None

    def test_explicit_cancel_before_start(self, catalog):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=1, autostart=False)
            keep = engine.submit(paper_mix_statements()[0])
            victim = engine.submit(paper_mix_statements()[1])
            assert victim.cancel() is True
            engine.start()
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        assert keep.status == "done"
        assert victim.status == "cancelled"
        assert engine.admission.in_use == 0

    def test_cancel_after_done_returns_false(self, catalog):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=1)
            ticket = engine.submit(paper_mix_statements()[0])
            assert ticket.wait(timeout=DRAIN_TIMEOUT)
            assert ticket.cancel() is False
            engine.shutdown(timeout=10.0)
        assert ticket.status == "done"

    def test_backpressure_rejects_with_retry_after(self, catalog):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(
                session, workers=1, queue_capacity=2, autostart=False,
            )
            engine.submit(paper_mix_statements()[0])
            engine.submit(paper_mix_statements()[1])
            with pytest.raises(BackpressureError) as excinfo:
                engine.submit(paper_mix_statements()[2])
            assert excinfo.value.retry_after_s > 0
            engine.start()
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)

    def test_retry_after_honours_measured_zero_ema(self, catalog):
        """Regression: ``retry_after`` used a falsy check on the service
        EMA, so a genuine measured 0.0 (services faster than the clock
        resolution) fell back to the 50 ms cold-start guess — a 50x
        over-estimate handed to every backpressured client."""
        with EngineSession(catalog) as session:
            engine = AsyncEngine(
                session, workers=1, queue_capacity=2, autostart=False,
            )
            try:
                engine.submit_all(paper_mix_statements()[:2])
                with engine._work:
                    # no sample yet: the cold-start guess (2 queued,
                    # 50 ms each, 1 worker -> 0.1 s)
                    assert engine._service_ema_s is None
                    assert engine._retry_after_locked() == pytest.approx(0.1)
                    # a measured all-zero EMA is a sample, not a gap
                    engine._service_ema_s = 0.0
                    assert engine._retry_after_locked() == 0.001
            finally:
                engine.shutdown(drain=False, timeout=10.0)

    def test_shutdown_without_drain_cancels_queued(self, catalog):
        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=1, autostart=False)
            tickets = engine.submit_all(paper_mix_statements()[:3])
            engine.shutdown(drain=False, timeout=10.0)
            assert all(t.status == "cancelled" for t in tickets)
            with pytest.raises(RuntimeError):
                engine.submit(paper_mix_statements()[0])

    def test_oversized_query_rejected_not_hung(self, catalog):
        from repro.gpu import DeviceSpec

        spec = DeviceSpec.v100().with_memory(4096)
        with EngineSession(catalog, device=spec) as session:
            engine = AsyncEngine(session, workers=2)
            ticket = engine.submit(
                "SELECT count(*) AS c FROM lineitem WHERE l_quantity > "
                "(SELECT avg(l2.l_quantity) FROM lineitem l2 "
                "WHERE l2.l_orderkey = l_orderkey)"
            )
            assert ticket.wait(timeout=DRAIN_TIMEOUT)
            engine.shutdown(timeout=10.0)
        assert ticket.status == "rejected"
        assert "capacity" in ticket.detail


class TestReporting:
    def test_report_carries_both_clocks(self, catalog):
        with EngineSession(catalog, metrics=MetricsRegistry()) as session:
            engine = AsyncEngine(session, workers=2)
            engine.submit_all(paper_mix_statements())
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
            report = engine.report()
        assert len(report.completed) == 10
        for query in report.completed:
            assert query.duration_ns > 0          # modelled clock
            assert query.wall_run_ms > 0          # wall clock
            assert query.wall_wait_ms >= 0
            payload = query.to_dict()
            assert payload["wall_run_ms"] == query.wall_run_ms
        trace = report.chrome_trace()
        lanes = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert lanes <= {0, 1}

    def test_spans_tagged_with_worker_and_stream(self, catalog):
        tracer = Tracer()
        with EngineSession(catalog, tracer=tracer) as session:
            engine = AsyncEngine(session, workers=2)
            engine.submit_all(paper_mix_statements()[:4])
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        tracer.finish()
        tagged = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.attrs and "worker" in span.attrs
        ]
        assert len(tagged) == 4
        assert all(span.attrs["stream"] in (0, 1) for span in tagged)
        assert {span.attrs["seq"] for span in tagged} == {0, 1, 2, 3}

    def test_metrics_count_every_outcome(self, catalog):
        metrics = MetricsRegistry()
        with EngineSession(catalog, metrics=metrics) as session:
            engine = AsyncEngine(session, workers=2, autostart=False)
            engine.submit_all(paper_mix_statements()[:4])
            victim = engine.submit(paper_mix_statements()[4])
            victim.cancel()
            engine.start()
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            engine.shutdown(drain=False, timeout=10.0)
        assert metrics.counter("serve.queries.admitted").value == 4
        assert metrics.counter("serve.queries.cancelled").value == 1


class TestSharedStateRegressions:
    """The latent hazards the concurrency audit fixed, pinned down."""

    def test_counter_increments_are_atomic(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("hammered")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert counter.value == 80_000

    def test_histogram_observations_are_atomic(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("hammered")
        threads = [
            threading.Thread(
                target=lambda: [hist.observe(1.0) for _ in range(5_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert hist.count == 40_000

    def test_registry_get_or_create_is_atomic(self):
        metrics = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def race():
            barrier.wait()
            seen.append(metrics.counter("shared"))

        threads = [threading.Thread(target=race) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(seen) == 8
        assert all(c is seen[0] for c in seen)  # one instance, not eight

    def test_tracer_leaf_events_from_many_threads(self):
        tracer = Tracer()
        threads = [
            threading.Thread(
                target=lambda: [
                    tracer.leaf("k", "kernel", 10.0) for _ in range(2_000)
                ]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        tracer.finish()
        assert tracer.dropped == 0
        recorded = sum(1 for root in tracer.roots for _ in root.walk())
        assert recorded == 8_000


class TestAdmissionReleasedBeforePublish:
    """A terminal ticket gives its admission reservation back before it
    is published, so ``drain()`` cannot return while the ledger still
    holds the last query: each outcome, inline and threaded."""

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("outcome", ["ok", "error", "cancelled"])
    def test_reservation_gone_when_the_ticket_is_published(
        self, catalog, monkeypatch, threaded, outcome,
    ):
        from repro.errors import ExecutionError

        with EngineSession(catalog) as session:
            engine = AsyncEngine(session, workers=2, autostart=threaded)
            published = []
            finish, execute = engine._finish, engine._execute

            def spy_finish(ticket, *args):
                finish(ticket, *args)  # publishes the terminal ticket
                published.append((ticket.status, ticket._admission.state))

            def cancelling_execute(ticket, *args):
                ticket._cancel = True  # after admission, before the run
                execute(ticket, *args)

            def failing_run(*args, **kwargs):
                raise ExecutionError("injected")

            monkeypatch.setattr(engine, "_finish", spy_finish)
            if outcome == "cancelled":
                monkeypatch.setattr(engine, "_execute", cancelling_execute)
            if outcome == "error":
                monkeypatch.setattr(session, "run", failing_run)
            engine.run_batch(paper_mix_statements()[:3], timeout=DRAIN_TIMEOUT)
            assert engine.admission.in_use == 0
            engine.shutdown(timeout=10.0)
        status = {"ok": "done", "error": "error", "cancelled": "cancelled"}
        assert published == [(status[outcome], "released")] * 3
