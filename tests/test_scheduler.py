"""The inline (zero-thread) AsyncEngine and its StreamTimeline: stream
placement, admission control, makespan — all deterministic."""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import pytest

from repro.gpu import DeviceSpec
from repro.obs import MetricsRegistry
from repro.serve import (
    AsyncEngine,
    EngineSession,
    TenantBudget,
    paper_mix_statements,
    split_statements,
)
from repro.serve.scheduler import StreamTimeline
from repro.tpch import generate_tpch

SCALE = 0.05

# (stream, repr(start_ns)) per query and repr(makespan_ns): the paper
# mix on 4 streams at SF 0.05, captured from the list-scheduling
# QueryScheduler before the AsyncEngine's inline mode replaced it
PLACEMENT_PIN = [
    (0, "0.0"),
    (1, "0.0"),
    (2, "0.0"),
    (3, "0.0"),
    (2, "64145.68036175044"),
    (1, "94428.59014669375"),
    (3, "178864.62872350088"),
    (0, "205141.4887235009"),
    (3, "241866.97575191798"),
    (2, "268107.58575191797"),
]
MAKESPAN_PIN = "409103.3941136685"

OVERSIZED = (
    "SELECT count(*) AS c FROM lineitem WHERE l_quantity > "
    "(SELECT avg(l2.l_quantity) FROM lineitem l2 "
    "WHERE l2.l_orderkey = l_orderkey)"
)


def inline_engine(session, streams, **kwargs):
    return AsyncEngine(session, workers=streams, autostart=False, **kwargs)


def executed(duration_ns, transfer_ns=0.0):
    """The slice of a QueryResult the timeline reads."""
    return SimpleNamespace(
        makespan_ns=None, group_report=None,
        stats=SimpleNamespace(
            total_ns=duration_ns, transfer_time_ns=transfer_ns,
        ),
    )


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


class TestPaperMixWorkload:
    @pytest.fixture(scope="class")
    def batch(self, catalog):
        metrics = MetricsRegistry()
        with EngineSession(catalog, metrics=metrics) as session:
            report = inline_engine(session, 4).run_batch(
                paper_mix_statements()
            )
            yield report, session, metrics

    def test_all_ten_complete(self, batch):
        report, _, _ = batch
        assert len(report.queries) == 10
        assert len(report.completed) == 10
        assert not report.rejected

    def test_placement_matches_the_pinned_list_schedule(self, batch):
        report, _, _ = batch
        assert [
            (q.stream, repr(q.start_ns)) for q in report.queries
        ] == PLACEMENT_PIN
        assert repr(report.makespan_ns) == MAKESPAN_PIN

    def test_makespan_beats_serial_sum(self, batch):
        report, _, _ = batch
        assert report.makespan_ns > 0
        assert report.makespan_ns < report.serial_ns
        assert report.speedup > 1.0

    def test_plan_cache_hits_in_metrics(self, batch):
        _, session, metrics = batch
        assert session.plan_cache.hit_ratio > 0
        assert metrics.counter("plan_cache.hits").value > 0
        assert metrics.gauge("plan_cache.hit_ratio").value > 0
        assert metrics.counter("serve.queries.admitted").value == 10

    def test_work_spreads_across_streams(self, batch):
        report, _, _ = batch
        assert len({q.stream for q in report.completed}) > 1

    def test_stream_timelines_never_overlap(self, batch):
        report, _, _ = batch
        for stream in range(report.streams):
            lane = sorted(
                (q for q in report.completed if q.stream == stream),
                key=lambda q: q.start_ns,
            )
            for prev, nxt in zip(lane, lane[1:]):
                assert nxt.start_ns >= prev.end_ns

    def test_makespan_floored_by_bus_traffic(self, batch):
        report, _, _ = batch
        assert report.bus_ns > 0
        assert report.makespan_ns >= report.bus_ns

    def test_chrome_trace_has_stream_lanes(self, batch, tmp_path):
        report, _, _ = batch
        path = tmp_path / "streams.json"
        report.write_chrome_trace(path)
        trace = json.loads(path.read_text())
        slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == 10
        assert {e["tid"] for e in slices} == {
            q.stream for q in report.completed
        }
        names = [e for e in trace["traceEvents"] if e.get("ph") == "M"]
        assert len(names) == report.streams

    def test_report_round_trips_to_json(self, batch):
        report, _, _ = batch
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed"] == 10
        assert payload["makespan_ms"] < payload["serial_ms"]
        assert any(q["plan_cache_hit"] for q in payload["queries"])


class TestAdmissionControl:
    def test_oversized_query_rejected(self, catalog):
        tiny = DeviceSpec.v100().with_memory(4096)
        metrics = MetricsRegistry()
        with EngineSession(catalog, device=tiny, metrics=metrics) as session:
            report = inline_engine(session, 2).run_batch([OVERSIZED])
        assert len(report.rejected) == 1
        assert "exceeds" in report.rejected[0].detail
        assert metrics.counter("serve.queries.rejected").value == 1

    def test_rejection_does_not_stop_the_batch(self, catalog):
        tiny = DeviceSpec.v100().with_memory(4096)
        with EngineSession(catalog, device=tiny) as session:
            report = inline_engine(session, 2).run_batch(
                [OVERSIZED, "SELECT count(*) AS c FROM region"]
            )
        assert [q.status for q in report.queries] == ["rejected", "done"]

    def test_bad_sql_is_an_error_entry(self, catalog):
        metrics = MetricsRegistry()
        with EngineSession(catalog, metrics=metrics) as session:
            report = inline_engine(session, 1).run_batch(
                ["SELECT FROM nowhere", "SELECT count(*) AS c FROM region"]
            )
        assert report.queries[0].status == "error"
        assert report.queries[1].status == "done"
        assert metrics.counter("serve.queries.error").value == 1

    def test_admission_delays_start_when_memory_is_tight(self):
        # two in-flight working sets of 60 cannot coexist under 100:
        # the second query starts when the first completes
        timeline = StreamTimeline(streams=2, capacity_bytes=100)
        assert timeline.place(60, executed(10.0)) == (0, 0.0, 10.0)
        assert timeline.place(60, executed(5.0)) == (1, 10.0, 5.0)

    def test_admission_immediate_when_memory_fits(self):
        timeline = StreamTimeline(streams=2, capacity_bytes=100)
        timeline.place(60, executed(10.0))
        assert timeline.place(30, executed(5.0)) == (1, 0.0, 5.0)

    def test_a_worker_places_on_its_own_stream(self):
        timeline = StreamTimeline(streams=2, capacity_bytes=100)
        timeline.place(10, executed(10.0, transfer_ns=2.0), stream=1)
        # stream 0 is the earliest free, but the worker owns stream 1
        assert timeline.place(10, executed(4.0, transfer_ns=1.0), stream=1) == (
            1, 10.0, 4.0,
        )
        assert timeline.free_at == [0.0, 14.0]
        assert timeline.bus_ns == 3.0

    def test_sharded_result_places_its_makespan_and_busiest_link(self):
        timeline = StreamTimeline(streams=1, capacity_bytes=100)
        result = executed(40.0, transfer_ns=8.0)  # sums over the group
        result.makespan_ns = 12.0
        result.group_report = {"devices": [
            {"transfer_time_ns": 3.0}, {"transfer_time_ns": 5.0},
        ]}
        assert timeline.place(10, result) == (0, 0.0, 12.0)
        assert timeline.bus_ns == 5.0

    def test_scheduler_rejects_zero_streams(self, catalog):
        with pytest.raises(ValueError):
            StreamTimeline(streams=0, capacity_bytes=100)
        with EngineSession(catalog) as session:
            with pytest.raises(ValueError):
                AsyncEngine(session, workers=0, autostart=False)

    def test_ledger_balances_after_every_terminal_outcome(self, catalog):
        """A rejected, an errored and a deadline-expired statement in
        one inline batch leave no reservation behind."""
        done_sql = "SELECT count(*) AS c FROM region"
        with EngineSession(catalog) as session:
            probe, _ = session.lookup_or_prepare(OVERSIZED)
            quota = session.working_set_bytes(probe) - 1
            engine = inline_engine(
                session, 2,
                tenant_budgets={"t": TenantBudget(quota_bytes=quota)},
            )
            tickets = [
                engine.submit(OVERSIZED, tenant="t"),       # over quota
                engine.submit("SELECT FROM nowhere", tenant="t"),
                engine.submit(done_sql, tenant="t", deadline_s=0.0),
                engine.submit(done_sql, tenant="t"),
            ]
            time.sleep(0.001)  # the zero deadline is now in the past
            report = engine.run_batch([])
        assert [t.status for t in tickets] == [
            "rejected", "error", "cancelled", "done",
        ]
        assert "deadline" in tickets[2].detail
        assert [q.status for q in report.queries] == [
            t.status for t in tickets
        ]
        assert engine.admission.in_use == 0
        assert engine.admission.waiting == 0
        budget = engine.tenant_stats()["t"]["budget"]
        assert budget["in_use_bytes"] == 0 and budget["in_flight"] == 0
        assert budget["peak_in_flight"] == 1


class _UnprunedTimeline:
    """The placement rule with every placed query kept in flight."""

    def __init__(self, streams, capacity):
        self.capacity = capacity
        self.free_at = [0.0] * streams
        self.in_flight = []
        self.pushed_back = 0

    def place(self, working_set, duration, stream):
        if stream is None:
            stream = min(
                range(len(self.free_at)), key=self.free_at.__getitem__
            )
        start = self.free_at[stream]
        while True:
            running = [(end, ws) for end, ws in self.in_flight if end > start]
            if sum(ws for _, ws in running) + working_set <= self.capacity:
                break
            start = min(end for end, _ in running)
            self.pushed_back += 1
        self.free_at[stream] = start + duration
        self.in_flight.append((start + duration, working_set))
        return stream, start


class TestInFlightPrune:
    def test_placements_equal_the_unpruned_rule(self, catalog, monkeypatch):
        """300 paper-mix statements on 4 inline streams under an HBM
        budget that fits two of their working sets (10-16 KB) but not
        three: every placement equals the rule that never prunes, and
        ``in_flight`` never holds more than one entry per stream."""
        tight = DeviceSpec.v100().with_memory(40_000)
        with EngineSession(catalog, device=tight) as session:
            engine = inline_engine(session, 4, queue_capacity=300)
            timeline = engine._timeline
            reference = _UnprunedTimeline(4, timeline.capacity)
            place = timeline.place
            placed, expected, sizes = [], [], []

            # the engine records an exception here as a failed query, so
            # the checks run after the batch
            def recorded(working_set, result, stream=None):
                placement = place(working_set, result, stream)
                placed.append(placement[:2])
                expected.append(
                    reference.place(working_set, placement[2], stream)
                )
                sizes.append(len(timeline.in_flight))
                return placement

            monkeypatch.setattr(timeline, "place", recorded)
            report = engine.run_batch(paper_mix_statements() * 30)
        assert len(report.completed) == len(placed) == 300
        assert placed == expected
        assert reference.pushed_back > 0  # admission push-back was exercised
        assert len(reference.in_flight) == 300
        # an inline engine places after each run: no other query is running
        assert max(sizes) <= 4


class TestDeterministicFairShare:
    def test_weighted_dequeue_order_is_exact(self, catalog):
        """Two tenants, weights 3:1, everything queued before the
        drain: the inline mode serves the stride schedule exactly."""
        sql = "SELECT count(*) AS c FROM region"
        with EngineSession(catalog) as session:
            engine = inline_engine(
                session, 1, policy="fair",
                tenant_weights={"alpha": 3.0, "beta": 1.0},
            )
            tickets = [engine.submit(sql, tenant="alpha") for _ in range(6)]
            tickets += [engine.submit(sql, tenant="beta") for _ in range(2)]
            report = engine.run_batch([])
        assert len(report.completed) == 8
        served = sorted(tickets, key=lambda t: t.start_ns)
        assert [t.tenant for t in served] == [
            "alpha", "beta", "alpha", "alpha", "alpha", "beta",
            "alpha", "alpha",
        ]

class TestSingleStreamDegenerate:
    def test_one_stream_makespan_equals_serial(self, catalog):
        with EngineSession(catalog) as session:
            report = inline_engine(session, 1).run_batch(
                paper_mix_statements()[:4]
            )
        assert report.makespan_ns == pytest.approx(report.serial_ns)


class TestSplitStatements:
    def test_splits_on_semicolons(self):
        assert split_statements("SELECT 1 FROM a;\nSELECT 2 FROM b;") == [
            "SELECT 1 FROM a",
            "SELECT 2 FROM b",
        ]

    def test_semicolon_inside_string_is_kept(self):
        statements = split_statements(
            "SELECT count(*) AS c FROM t WHERE name = 'a;b'; SELECT 1 FROM u"
        )
        assert statements == [
            "SELECT count(*) AS c FROM t WHERE name = 'a;b'",
            "SELECT 1 FROM u",
        ]

    def test_trailing_statement_without_semicolon(self):
        assert split_statements("SELECT 1 FROM a") == ["SELECT 1 FROM a"]
