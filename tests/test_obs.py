"""The observability layer: tracer, metrics registry, trace export."""

import json

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    to_chrome_trace,
    write_chrome_trace,
)


class FakeStats:
    def __init__(self):
        self.total_ns = 0.0


class FakeDevice:
    """Just enough device for the tracer: a stats object with a clock."""

    def __init__(self):
        self.stats = FakeStats()

    def tick(self, ns: float) -> None:
        self.stats.total_ns += ns


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("x", "query") is None
        assert NULL_TRACER.end() is None
        NULL_TRACER.leaf("k", "kernel", 10.0)
        NULL_TRACER.close_siblings("subquery")
        assert NULL_TRACER.end_iteration() is None
        NULL_TRACER.finish()
        with NULL_TRACER.span("x", "phase") as span:
            assert span is None

    def test_tracer_is_a_drop_in(self):
        assert isinstance(Tracer(), type(NULL_TRACER))


class TestTracer:
    def test_span_nesting_and_self_time(self):
        tracer = Tracer()
        device = FakeDevice()
        tracer.bind_device(device)
        query = tracer.begin("query", "query")
        phase = tracer.begin("execute", "phase")
        device.tick(100.0)
        tracer.leaf("sort", "kernel", 60.0)
        op = tracer.begin("Sort", "operator")
        device.tick(40.0)
        tracer.end(op)
        tracer.end(phase)
        tracer.end(query)
        assert tracer.roots == [query]
        assert query.children == [phase]
        assert [c.name for c in phase.children] == ["sort", "Sort"]
        assert query.duration_ns == 140.0
        assert phase.duration_ns == 140.0
        assert op.duration_ns == 40.0
        # the kernel leaf spans [40, 100] on the modelled clock
        leaf = phase.children[0]
        assert (leaf.start_ns, leaf.end_ns) == (40.0, 100.0)
        assert phase.kernel_launches == 1

    def test_end_closes_dangling_children(self):
        tracer = Tracer()
        outer = tracer.begin("outer", "phase")
        tracer.begin("inner", "operator")  # never explicitly ended
        closed = tracer.end(outer)
        assert closed is outer
        assert outer.children[0].end_ns is not None
        assert tracer.end(outer) is None  # double-end is a no-op

    def test_close_siblings_only_pops_consecutive(self):
        tracer = Tracer()
        tracer.begin("q", "query")
        tracer.begin("subq 0", "subquery")
        tracer.begin("iteration 0", "iteration")
        # an iteration sits on top: a consecutive-subquery close at the
        # top of the stack must not reach through it
        tracer.close_siblings("subquery")
        assert [s.category for s in tracer._stack] == [
            "query", "subquery", "iteration"
        ]

    def test_end_iteration_respects_batch_boundary(self):
        tracer = Tracer()
        tracer.begin("subq 0", "subquery")
        tracer.begin("iteration 3", "iteration")
        tracer.begin("batch [0:4]", "batch")
        # a store inside the batch must not close the enclosing iteration
        assert tracer.end_iteration() is None
        tracer.end()  # batch
        ended = tracer.end_iteration(cache_hit=False)
        assert ended is not None and ended.category == "iteration"
        assert ended.attrs["cache_hit"] is False

    def test_bind_device_rebases_monotonically(self):
        tracer = Tracer()
        first = FakeDevice()
        tracer.bind_device(first)
        with tracer.span("q1", "query"):
            first.tick(500.0)
        second = FakeDevice()  # fresh clock at zero
        tracer.bind_device(second)
        with tracer.span("q2", "query"):
            second.tick(200.0)
        q1, q2 = tracer.roots
        assert q2.start_ns >= q1.end_ns
        assert q2.duration_ns == 200.0

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        a = tracer.begin("a", "query")
        tracer.begin("b", "phase")
        tracer.begin("c", "operator")  # past the cap
        tracer.leaf("k", "kernel", 1.0)  # past the cap
        tracer.finish()
        assert tracer.dropped == 2
        assert len(list(a.walk())) == 2  # c was not recorded
        # stack discipline survived the cap: everything is closed
        assert not tracer._stack

    def test_tracing_charges_nothing(self):
        device = FakeDevice()
        tracer = Tracer()
        tracer.bind_device(device)
        with tracer.span("q", "query"):
            tracer.leaf("k", "kernel", 0.0)
        assert device.stats.total_ns == 0.0


class TestChromeExport:
    def _trace(self):
        tracer = Tracer()
        device = FakeDevice()
        tracer.bind_device(device)
        with tracer.span("query", "query", sql="SELECT 1"):
            with tracer.span("execute", "phase"):
                device.tick(100.0)
                tracer.leaf("sort", "kernel", 100.0, elements=10)
        tracer.finish()
        return tracer

    def test_round_trip_and_nesting(self, tmp_path):
        tracer = self._trace()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert data["displayTimeUnit"] == "ms"
        stack = []
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            if event["ph"] == "B":
                stack.append(event)
            elif event["ph"] == "E":
                assert stack, "E event without a matching B"
                begin = stack.pop()
                assert event["ts"] >= begin["ts"]
            else:
                assert event["ph"] == "X"
                assert "dur" in event
        assert not stack, "unclosed B events"

    def test_timestamps_are_microseconds(self):
        tracer = self._trace()
        events = to_chrome_trace(tracer)["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and complete[0]["dur"] == 0.1  # 100 ns = 0.1 us
        assert complete[0]["args"]["elements"] == 10


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc()
        metrics.counter("a").inc(4)
        metrics.gauge("g").set(0.5)
        for value in (1.0, 3.0):
            metrics.histogram("h").observe(value)
        data = metrics.to_dict()
        assert data["counters"]["a"] == 5
        assert data["gauges"]["g"] == 0.5
        hist = data["histograms"]["h"]
        assert hist["count"] == 2 and hist["min"] == 1.0 and hist["max"] == 3.0
        assert hist["mean"] == 2.0

    def test_query_log_and_render(self):
        metrics = MetricsRegistry()
        metrics.counter("queries.total").inc()
        metrics.record_query(sql="SELECT 1", path="nested", total_ms=1.25,
                             rows=3)
        text = metrics.render_text()
        assert "queries.total" in text
        assert "SELECT 1" in text
        assert metrics.to_dict()["queries"][0]["path"] == "nested"

    def test_write_json(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.counter("x").inc()
        path = tmp_path / "metrics.json"
        metrics.write_json(path)
        assert json.loads(path.read_text())["counters"]["x"] == 1


class TestExportEdgeCases:
    """Satellite coverage: export must never crash on odd tracer state."""

    def test_spans_still_open_at_export(self):
        tracer = Tracer()
        device = FakeDevice()
        tracer.bind_device(device)
        tracer.begin("query", "query")
        device.tick(500.0)
        tracer.begin("execute", "phase")
        # export WITHOUT finish(): both spans are still open
        doc = to_chrome_trace(tracer)
        events = doc["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == 2 and len(ends) == 2
        # an open span exports with zero duration (end == start), and
        # the document is real JSON
        by_name = {e["name"]: e for e in ends}
        assert by_name["execute"]["ts"] == 0.5  # 500 ns in us
        json.dumps(doc)

    def test_non_json_serializable_attrs(self):
        tracer = Tracer()
        tracer.bind_device(FakeDevice())
        opaque = object()
        tracer.begin(
            "query", "query",
            opaque=opaque, aset={1, 2}, tup=(1, "x"),
        )
        tracer.leaf("k", "kernel", 0.0, ref=opaque)
        tracer.finish()
        doc = to_chrome_trace(tracer)
        text = json.dumps(doc)  # _json_safe coerced everything
        begin = [e for e in doc["traceEvents"] if e["ph"] == "B"][0]
        assert begin["args"]["opaque"] == str(opaque)
        assert begin["args"]["tup"] == [1, "x"]
        assert str(opaque) in text

    def test_empty_tracer_valid_zero_event_trace(self, tmp_path):
        tracer = Tracer()
        doc = to_chrome_trace(tracer)
        assert doc["traceEvents"] == []
        assert doc["otherData"]["dropped_spans"] == 0
        path = tmp_path / "empty.json"
        write_chrome_trace(path, tracer)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == []
