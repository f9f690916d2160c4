"""Observability: span tracing, metrics, exporters, EXPLAIN ANALYZE.

This package depends only on the standard library (plus duck-typed
engine objects), so any layer — the simulated device included — may
import it without cycles.  :mod:`repro.obs.analyze` (EXPLAIN ANALYZE)
is imported lazily by its callers to keep that property.
:mod:`repro.obs.telemetry` adds the serving-facing layer: wire-format
span trees, distributed Chrome traces, per-tenant SLO tracking, the
flight recorder, and the Prometheus text round-trip.
"""

from .export import (
    chrome_trace_events,
    to_chrome_trace,
    write_chrome_trace,
    write_trace_document,
)
from .metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .telemetry import (
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
from .tracer import (
    NULL_TRACER,
    STRUCTURAL_CATEGORIES,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PROMETHEUS_CONTENT_TYPE",
    "SLObjective",
    "SLOTracker",
    "STRUCTURAL_CATEGORIES",
    "Span",
    "Tracer",
    "build_trace_payload",
    "chrome_trace_events",
    "distributed_chrome_trace",
    "parse_prometheus_text",
    "span_from_dict",
    "span_to_dict",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_trace_document",
]
