"""The serving telemetry layer, unit-tested off the wire.

Covers the four pillars at the module level: quantile-capable
histograms (bucketed estimates within one log2 bucket boundary of the
truth), the Prometheus render -> parse round trip, span-tree wire
serialization and distributed Chrome trace stitching/validation, the
per-tenant SLO tracker's error-budget arithmetic, and the flight
recorder's bounded ring.  The satellite regressions live here too:
locked metric dumps under a concurrent writer hammer, the bounded
query log, and the empty-histogram text rendering.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.telemetry import (
    FlightRecorder,
    SLObjective,
    SLOTracker,
    build_trace_payload,
    distributed_chrome_trace,
    parse_prometheus_text,
    span_from_dict,
    span_to_dict,
    validate_chrome_trace,
)
from repro.obs.tracer import Span, Tracer
from repro.serve.concurrent import QueryTicket


# ---------------------------------------------------------------------------
# histogram quantiles
# ---------------------------------------------------------------------------


class TestHistogramQuantiles:
    def test_known_small_distribution(self):
        hist = Histogram("h")
        for value in (1.0, 1.0, 1.0, 10.0):
            hist.observe(value)
        # the 50th percentile lands inside the bucket of 1.0 and is
        # clamped to the observed minimum
        assert hist.quantile(0.5) == 1.0
        # the top quantile is clamped to the observed maximum
        assert hist.quantile(1.0) == 10.0

    def test_uniform_distribution_within_one_bucket(self):
        hist = Histogram("h")
        for value in range(1, 1001):
            hist.observe(float(value))
        # log2 buckets: the estimate must land within one bucket
        # boundary of the true quantile
        p50 = hist.quantile(0.50)   # true 500, bucket (256, 512]
        assert 256.0 <= p50 <= 1024.0
        p99 = hist.quantile(0.99)   # true 990, bucket (512, 1024]
        assert 512.0 <= p99 <= 1024.0
        p95 = hist.quantile(0.95)   # true 950, bucket (512, 1024]
        assert 512.0 <= p95 <= 1024.0

    def test_single_observation_every_quantile(self):
        hist = Histogram("h")
        hist.observe(42.0)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == 42.0

    def test_empty_histogram_is_none(self):
        hist = Histogram("h")
        assert hist.quantile(0.99) is None
        assert hist.percentiles() == {"p50": None, "p95": None, "p99": None}

    def test_quantile_range_validated(self):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_to_dict_keeps_legacy_shape_and_adds_percentiles(self):
        hist = Histogram("h")
        for value in (1.0, 3.0):
            hist.observe(value)
        data = hist.to_dict()
        # the PR 3 shape is intact...
        assert data["count"] == 2
        assert data["sum"] == 4.0
        assert data["min"] == 1.0 and data["max"] == 3.0
        assert data["mean"] == 2.0
        # ...and the quantiles ride along
        assert set(data) >= {"p50", "p95", "p99"}

    def test_zero_and_negative_values_bottom_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(-5.0)
        hist.observe(2.0)
        assert hist.count == 3
        # non-positive values land in the bottom bucket; the estimate
        # stays clamped within the observed [min, max]
        q0 = hist.quantile(0.0)
        assert -5.0 <= q0 <= 2.0 ** -40
        assert hist.quantile(1.0) == 2.0
        assert hist.to_dict()["min"] == -5.0

    def test_cumulative_buckets_monotonic(self):
        hist = Histogram("h")
        for value in (0.5, 1.5, 3.0, 100.0, 1e6):
            hist.observe(value)
        buckets = hist.cumulative_buckets()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        # the +Inf bucket is the renderer's job; the last finite
        # boundary already covers every observation
        assert buckets[-1][0] == 2.0 ** 20  # 1e6 <= 2**20
        assert buckets[-1][1] == hist.count


# ---------------------------------------------------------------------------
# metrics registry satellites: locking, bounded log, empty histograms
# ---------------------------------------------------------------------------


class TestRegistrySatellites:
    def test_query_log_is_bounded(self):
        metrics = MetricsRegistry(query_log_capacity=8)
        for i in range(20):
            metrics.record_query(sql=f"SELECT {i}", total_ms=1.0)
        data = metrics.to_dict()
        assert len(data["queries"]) == 8
        assert data["queries"][0]["sql"] == "SELECT 12"   # oldest kept
        assert data["queries"][-1]["sql"] == "SELECT 19"  # newest
        assert data["queries_dropped"] == 12

    def test_empty_histogram_renders_n0_without_min_max(self):
        metrics = MetricsRegistry()
        metrics.histogram("empty")  # created, never observed
        text = metrics.render_text()
        line = [l for l in text.splitlines() if "empty" in l][0]
        assert "n=0" in line
        assert "min=" not in line and "max=" not in line

    def test_dumps_survive_concurrent_metric_creation(self):
        """render_text/to_dict iterate under the lock (regression)."""
        metrics = MetricsRegistry()
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            i = 0
            while not stop.is_set():
                metrics.counter(f"c.{i}").inc()
                metrics.gauge(f"g.{i}").set(float(i))
                metrics.histogram(f"h.{i}").observe(float(i))
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    metrics.render_text()
                    metrics.to_dict()
                    metrics.render_prometheus()
            except BaseException as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        import time
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(10.0)
        assert not errors, errors


# ---------------------------------------------------------------------------
# Prometheus exposition round trip
# ---------------------------------------------------------------------------


class TestPrometheusRoundTrip:
    def _registry(self):
        metrics = MetricsRegistry()
        metrics.counter("session.queries").inc(7)
        metrics.gauge("plan_cache.hit_ratio").set(0.25)
        metrics.counter("qos.tenant.alpha.queries").inc(3)
        metrics.counter("qos.tenant.beta.rejected").inc()
        metrics.histogram("qos.tenant.alpha.wall_run_ms").observe(1.5)
        metrics.histogram("qos.tenant.alpha.wall_run_ms").observe(300.0)
        metrics.histogram("serve.queue_wait_ms")  # empty histogram
        return metrics

    def test_render_parses_and_counts(self):
        metrics = self._registry()
        text = metrics.render_prometheus()
        parsed = parse_prometheus_text(text)
        names = {name for name, _, _ in parsed["samples"]}
        assert "repro_session_queries_total" in names
        assert "repro_plan_cache_hit_ratio" in names
        by_name = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parsed["samples"]
        }
        assert by_name[("repro_session_queries_total", ())] == 7

    def test_tenant_names_become_labels(self):
        text = self._registry().render_prometheus()
        parsed = parse_prometheus_text(text)
        tenant_samples = [
            (name, labels, value)
            for name, labels, value in parsed["samples"]
            if labels.get("tenant")
        ]
        assert tenant_samples, "qos.tenant.* series must carry tenant labels"
        tenants = {labels["tenant"] for _, labels, _ in tenant_samples}
        assert tenants == {"alpha", "beta"}
        # the metric family name no longer embeds the tenant
        assert all(
            "alpha" not in name and "beta" not in name
            for name, _, _ in tenant_samples
        )

    def test_histogram_series_shape(self):
        text = self._registry().render_prometheus()
        parsed = parse_prometheus_text(text)
        family = "repro_qos_tenant_wall_run_ms"
        assert parsed["types"][family] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in parsed["samples"]
            if name == f"{family}_bucket" and labels.get("tenant") == "alpha"
        ]
        assert buckets[-1][0] == "+Inf" and buckets[-1][1] == 2
        counts = [
            value for name, labels, value in parsed["samples"]
            if name == f"{family}_count" and labels.get("tenant") == "alpha"
        ]
        assert counts == [2]

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("no_type_line 3\n")
        with pytest.raises(ValueError):
            parse_prometheus_text(
                "# TYPE x counter\nx not-a-number\n"
            )
        with pytest.raises(ValueError):
            # histogram without a +Inf bucket
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1\n'
                "h_count 1\n"
            )
        with pytest.raises(ValueError):
            # +Inf bucket disagreeing with _count
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1\n'
                'h_bucket{le="+Inf"} 1\n'
                "h_count 5\n"
            )

    def test_label_escaping_round_trips(self):
        metrics = MetricsRegistry()
        metrics.counter('qos.tenant.we"ird.queries').inc()
        text = metrics.render_prometheus()
        parsed = parse_prometheus_text(text)
        labels = [
            labels for _, labels, _ in parsed["samples"] if labels
        ][0]
        assert labels["tenant"] == 'we"ird'


# ---------------------------------------------------------------------------
# span-tree wire serialization + distributed stitching
# ---------------------------------------------------------------------------


def _sample_tracer() -> Tracer:
    class FakeDevice:
        class stats:
            total_ns = 0.0

    device = FakeDevice()
    tracer = Tracer()
    tracer.bind_device(device)
    root = tracer.begin("query", "query", seq=0, tenant="alpha")
    tracer.begin("execute", "phase", path="nested")
    device.stats.total_ns = 100.0
    tracer.leaf("scan", "kernel", 50.0, elements=10)
    device.stats.total_ns = 400.0
    tracer.end()
    tracer.end(root)
    return tracer


class TestSpanSerialization:
    def test_round_trip_preserves_tree(self):
        tracer = _sample_tracer()
        node = span_to_dict(tracer.roots[0])
        json.dumps(node)  # wire-safe
        back = span_from_dict(node)
        assert isinstance(back, Span)
        assert back.name == "query" and back.category == "query"
        assert back.attrs["tenant"] == "alpha"
        assert len(back.children) == 1
        phase = back.children[0]
        assert phase.category == "phase" and phase.end_ns == 400.0
        leaf = phase.children[0]
        assert leaf.category == "kernel"
        assert leaf.end_ns - leaf.start_ns == 50.0
        assert phase.kernel_launches == 1

    def test_round_trip_coerces_unsafe_attrs(self):
        tracer = Tracer()
        root = tracer.begin("query", "query", opaque=object())
        tracer.end(root)
        node = span_to_dict(tracer.roots[0])
        json.dumps(node)
        assert isinstance(node["attrs"]["opaque"], str)


def _ticket_with_trace(seq=0, tenant="alpha", connection=1):
    ticket = QueryTicket(seq, "SELECT 1", None, 0, None, tenant, True)
    ticket.worker = ticket.stream = 0
    ticket.status = "done"
    base = ticket.wall_submit_s
    ticket.wall_dequeue_s = base + 0.001
    ticket.wall_admitted_s = base + 0.002
    ticket.wall_start_s = base + 0.002
    ticket.wall_end_s = base + 0.010
    ticket.spans = _sample_tracer().export_roots()
    payload = build_trace_payload(ticket)
    payload["query_id"] = seq + 100
    payload["connection"] = connection
    return payload


class TestDistributedTrace:
    def test_payload_shape(self):
        payload = _ticket_with_trace()
        assert payload["query"]["tenant"] == "alpha"
        assert [p["name"] for p in payload["wall"]] == [
            "queued", "plan+admission", "execute",
        ]
        assert payload["modelled"][0]["name"] == "query"
        assert payload["dropped_spans"] == 0
        json.dumps(payload)

    def test_stitched_trace_validates_with_both_lanes(self):
        payloads = [
            _ticket_with_trace(seq=0, tenant="alpha", connection=1),
            _ticket_with_trace(seq=1, tenant="beta", connection=2),
        ]
        doc = distributed_chrome_trace(payloads)
        events = validate_chrome_trace(doc)
        assert events == len(doc["traceEvents"])
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2}  # wall lane + modelled lane
        wall = [
            e for e in doc["traceEvents"]
            if e["pid"] == 1 and e["ph"] == "X"
        ]
        assert {e["tid"] for e in wall} == {1, 2}  # one lane per connection
        # correlation attributes ride every event
        assert all(e["args"]["query_id"] in (100, 101) for e in wall)
        modelled = [
            e for e in doc["traceEvents"]
            if e["pid"] == 2 and e["ph"] == "B"
        ]
        assert {e["args"]["query_id"] for e in modelled} == {100, 101}

    def test_validator_catches_corruption(self):
        doc = distributed_chrome_trace([_ticket_with_trace()])
        # drop one E event: the stack check must fire
        events = doc["traceEvents"]
        broken = {
            "traceEvents": [
                e for e in events
                if not (e["ph"] == "E" and e["name"] == "query")
            ]
        }
        with pytest.raises(ValueError):
            validate_chrome_trace(broken)
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})


# ---------------------------------------------------------------------------
# SLO tracking
# ---------------------------------------------------------------------------


class TestSLOTracker:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective(0.0)
        with pytest.raises(ValueError):
            SLObjective(100.0, target=1.0)

    def test_error_budget_burn(self):
        tracker = SLOTracker(default=SLObjective(100.0, target=0.9))
        for _ in range(8):
            tracker.observe("alpha", 50.0, outcome="ok")
        tracker.observe("alpha", 500.0, outcome="ok")   # too slow
        tracker.observe("alpha", 50.0, outcome="error")  # failed
        snap = tracker.snapshot()["alpha"]
        assert snap["total"] == 10 and snap["good"] == 8
        # 20% violations against a 10% budget: burning at 2x
        assert snap["error_budget_burn"] == pytest.approx(2.0)
        assert snap["outcomes"]["ok"] == 9
        assert snap["outcomes"]["error"] == 1

    def test_outcome_counters_and_deadline_miss(self):
        tracker = SLOTracker()
        tracker.observe("t", 10.0, outcome="ok")
        tracker.observe("t", 10.0, outcome="deadline")
        tracker.observe("t", 10.0, outcome="cancelled")
        tracker.observe("t", 10.0, outcome="rejected")
        tracker.note_backpressure("t")
        snap = tracker.snapshot()["t"]
        assert snap["deadline_missed"] == 1
        assert snap["outcomes"]["cancelled"] == 1
        assert snap["outcomes"]["rejected"] == 1
        assert snap["backpressure"] == 1
        with pytest.raises(ValueError):
            tracker.observe("t", 1.0, outcome="exploded")

    def test_per_class_histograms_and_quantiles(self):
        tracker = SLOTracker(default=SLObjective(1000.0))
        for latency in (10.0, 20.0, 30.0):
            tracker.observe("a", latency, query_class="nested")
        tracker.observe("a", 500.0, query_class="unnested")
        snap = tracker.snapshot()["a"]
        assert set(snap["by_class"]) == {"nested", "unnested"}
        assert snap["by_class"]["nested"]["count"] == 3
        assert snap["latency_ms"]["p50"] is not None
        assert snap["latency_ms"]["p99"] is not None

    def test_per_tenant_objectives(self):
        tracker = SLOTracker(
            objectives={"gold": SLObjective(10.0, target=0.5)},
            default=SLObjective(1000.0),
        )
        tracker.observe("gold", 50.0)    # violates gold's 10 ms
        tracker.observe("plain", 50.0)   # fine under the default
        snap = tracker.snapshot()
        assert snap["gold"]["good"] == 0
        assert snap["plain"]["good"] == 1
        assert snap["gold"]["objective"]["latency_ms"] == 10.0

    def test_mirrors_into_metrics_registry(self):
        metrics = MetricsRegistry()
        tracker = SLOTracker(metrics=metrics)
        tracker.observe("alpha", 12.0, outcome="ok")
        tracker.observe("alpha", 12.0, outcome="deadline")
        tracker.note_backpressure("alpha")
        dump = metrics.dump_prefix("qos.")
        assert dump["histograms"]["qos.tenant.alpha.slo.latency_ms"]["count"] == 2
        assert dump["counters"]["qos.tenant.alpha.slo.deadline_missed"] == 1
        assert dump["counters"]["qos.tenant.alpha.slo.backpressure"] == 1


# ---------------------------------------------------------------------------
# the flight recorder
# ---------------------------------------------------------------------------


class _Record:
    """A stand-in ticket: the recorder only asks for ``flight_dict()``."""

    def __init__(self, **fields):
        self.fields = fields

    def flight_dict(self):
        return self.fields


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(_Record(seq=i, outcome="ok"))
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        dump = recorder.dump()
        assert [r["seq"] for r in dump] == [6, 7, 8, 9]

    def test_dump_limit_and_to_dict(self):
        recorder = FlightRecorder(capacity=16)
        for i in range(5):
            recorder.record(_Record(seq=i))
        assert [r["seq"] for r in recorder.dump(limit=2)] == [3, 4]
        data = recorder.to_dict(limit=3)
        assert data["capacity"] == 16
        assert data["recorded"] == 5 and data["dropped"] == 0
        assert len(data["records"]) == 3
        json.dumps(data)

    def test_records_are_json_safe(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(_Record(seq=0, opaque=object(), nested=(1, 2)))
        path = tmp_path / "flight.json"
        recorder.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["records"][0]["nested"] == [1, 2]
        assert isinstance(loaded["records"][0]["opaque"], str)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
