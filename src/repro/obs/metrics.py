"""A small metrics registry: counters, gauges, histograms, query log.

The registry is engine-agnostic state the executor fills in after each
run: cache hit ratios, pool reuse vs. raw mallocs, index probes, PCIe
transfer fractions, and the cost model's predicted-vs-actual error per
query (the Figure 15/16 accuracy data, recomputable from any session's
dump).

The registry is shared by every worker of a concurrent serving engine,
so each metric's read-modify-write update (``value += amount``, the
histogram's fields) happens under the metric's own lock, and
get-or-create goes through the registry lock — an unsynchronized
``inc`` from two threads loses updates at the bytecode level even
under the GIL.  Every read-side dump (``to_dict``, ``render_text``,
``render_prometheus``, ``dump_prefix``) snapshots the metric maps
under the registry lock first, so a concurrent get-or-create can never
mutate a dict mid-iteration.

Histograms are quantile-capable: alongside the streaming
count/sum/min/max they keep log2-spaced buckets, so ``quantile(0.99)``
returns a bucketed estimate (exact to within one bucket boundary,
clamped to the observed min/max) and ``render_prometheus`` can expose
the classic ``_bucket``/``_sum``/``_count`` series.
"""

from __future__ import annotations

import json
import math
import re
import threading

#: The exposition format version served by the METRICS opcode.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Histogram bucket exponent clamp: values land in bucket ``e`` when
#: ``2**(e-1) < v <= 2**e``; anything below 2**_BUCKET_MIN (incl. 0 and
#: negatives) goes to the bottom bucket, anything above 2**_BUCKET_MAX
#: to the top one.  The range covers sub-microsecond to ~1e18.
_BUCKET_MIN = -40
_BUCKET_MAX = 60


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


def _bucket_exp(value: float) -> int:
    """The log2 bucket a value falls in (``2**(e-1) < v <= 2**e``)."""
    if value <= 0:
        return _BUCKET_MIN
    exp = math.ceil(math.log2(value))
    # float fuzz: log2(2**k) can land a hair above k; pull back when
    # the value actually fits the bucket below
    if value <= 2.0 ** (exp - 1):
        exp -= 1
    return max(_BUCKET_MIN, min(_BUCKET_MAX, exp))


class Histogram:
    """Streaming count/sum/min/max plus log2 buckets for quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}  # exponent -> count (sparse)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            exp = _bucket_exp(value)
            self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _quantile_locked(self, q: float) -> float | None:
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for exp in sorted(self.buckets):
            in_bucket = self.buckets[exp]
            if cumulative + in_bucket >= target:
                lower, upper = 2.0 ** (exp - 1), 2.0 ** exp
                fraction = (target - cumulative) / in_bucket
                estimate = lower + fraction * (upper - lower)
                # observed extremes are exact; never report outside them
                return max(self.min, min(self.max, estimate))
            cumulative += in_bucket
        return self.max

    def quantile(self, q: float) -> float | None:
        """A bucketed quantile estimate (None when empty).

        Exact to within one log2 bucket boundary: the true value and
        the estimate share a bucket, and the estimate is clamped to
        the observed ``[min, max]``.
        """
        with self._lock:
            return self._quantile_locked(q)

    def percentiles(self) -> dict:
        """p50/p95/p99 in one consistent snapshot."""
        with self._lock:
            return {
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ascending, for exposition."""
        with self._lock:
            pairs = []
            cumulative = 0
            for exp in sorted(self.buckets):
                cumulative += self.buckets[exp]
                pairs.append((2.0 ** exp, cumulative))
            return pairs

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }


class MetricsRegistry:
    """Named metrics plus a per-query log, dumpable as JSON or text.

    ``query_log_capacity`` bounds the per-query log as a ring: a
    long-lived serving session appends an entry per query from every
    worker, so the log keeps the most recent N entries and counts the
    overflow in ``query_log_dropped``.
    """

    def __init__(self, query_log_capacity: int = 10_000):
        if query_log_capacity < 1:
            raise ValueError("query_log_capacity must be positive")
        # guards get-or-create; each metric carries its own update lock
        # (metrics are recorded per query, not per kernel, so the
        # contention cost is negligible)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.query_log: list[dict] = []
        self.query_log_capacity = query_log_capacity
        self.query_log_dropped = 0

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
        return metric

    def record_query(self, **entry) -> None:
        """Append one query's summary (sql, path, predicted/actual ms, ...).

        The log is a bounded ring: past capacity the oldest entries
        are dropped (and counted), never the newest.
        """
        with self._lock:
            self.query_log.append(entry)
            overflow = len(self.query_log) - self.query_log_capacity
            if overflow > 0:
                del self.query_log[:overflow]
                self.query_log_dropped += overflow

    def _snapshot(self):
        """Consistent copies of the metric maps (and the query log)."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
                list(self.query_log),
            )

    def dump_prefix(self, prefix: str) -> dict:
        """Counters/gauges/histograms under one name prefix.

        The serving stack namespaces per-tenant metrics as
        ``qos.tenant.<name>.*``; the network server's STATS frame and
        the QoS tests read them back through this filter.
        """
        counters, gauges, histograms, _ = self._snapshot()
        return {
            "counters": {
                n: c.value for n, c in sorted(counters.items())
                if n.startswith(prefix)
            },
            "gauges": {
                n: g.value for n, g in sorted(gauges.items())
                if n.startswith(prefix)
            },
            "histograms": {
                n: h.to_dict() for n, h in sorted(histograms.items())
                if n.startswith(prefix)
            },
        }

    def to_dict(self) -> dict:
        counters, gauges, histograms, queries = self._snapshot()
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(histograms.items())
            },
            "queries": queries,
            "queries_dropped": self.query_log_dropped,
        }

    def render_text(self) -> str:
        """An aligned plain-text dump for terminals and logs."""
        counters, gauges, histograms, queries = self._snapshot()
        lines = ["metrics:"]
        for name, counter in sorted(counters.items()):
            lines.append(f"  {name:<40s} {counter.value:>14g}")
        for name, gauge in sorted(gauges.items()):
            if gauge.value is not None:
                lines.append(f"  {name:<40s} {gauge.value:>14g}")
        for name, hist in sorted(histograms.items()):
            if hist.count == 0:
                # an empty histogram has no extremes: min=0/max=0 would
                # be indistinguishable from a real observed 0.0
                lines.append(f"  {name:<40s} n=0")
                continue
            lines.append(
                f"  {name:<40s} n={hist.count} mean={hist.mean:.4g}"
                f" min={hist.min:.4g} max={hist.max:.4g}"
            )
        if queries:
            lines.append("queries:")
            for entry in queries:
                predicted = entry.get("predicted_ms")
                predicted_text = (
                    f" predicted={predicted:.3f}ms" if predicted is not None else ""
                )
                lines.append(
                    f"  [{entry.get('path', '?'):<8s}]"
                    f" {entry.get('total_ms', 0.0):.3f}ms"
                    f"{predicted_text} rows={entry.get('rows')}"
                    f" :: {entry.get('sql', '')}"
                )
        return "\n".join(lines)

    # -- Prometheus text exposition ----------------------------------------

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """The registry in Prometheus text exposition format 0.0.4.

        Metric names are sanitized (dots become underscores) under one
        ``prefix``; the serving stack's ``qos.tenant.<name>.*``
        namespace is folded into a ``tenant`` label, so one family —
        say ``repro_qos_tenant_wall_run_ms`` — carries every tenant's
        series.  Histograms get the conventional cumulative
        ``_bucket`` (log2 ``le`` boundaries plus ``+Inf``), ``_sum``
        and ``_count`` series; counters get the ``_total`` suffix.
        """
        counters, gauges, histograms, _ = self._snapshot()
        families: dict[str, dict] = {}

        def family(raw: str, kind: str, suffix: str = "") -> dict:
            name, labels = _prometheus_split(raw, prefix)
            entry = families.setdefault(
                name + suffix, {"type": kind, "series": []},
            )
            return {"labels": labels, "series": entry["series"]}

        for raw, counter in counters.items():
            slot = family(raw, "counter", "_total")
            slot["series"].append((slot["labels"], counter.value))
        for raw, gauge in gauges.items():
            if gauge.value is None:
                continue
            slot = family(raw, "gauge")
            slot["series"].append((slot["labels"], gauge.value))
        histogram_data = []
        for raw, hist in histograms.items():
            name, labels = _prometheus_split(raw, prefix)
            histogram_data.append(
                (name, labels, hist.cumulative_buckets(),
                 hist.count, hist.total)
            )

        lines: list[str] = []
        for fname in sorted(families):
            entry = families[fname]
            lines.append(f"# TYPE {fname} {entry['type']}")
            for labels, value in sorted(entry["series"]):
                lines.append(
                    f"{fname}{_prometheus_labels(labels)} {_prometheus_num(value)}"
                )
        seen_hist_types: set[str] = set()
        for name, labels, buckets, count, total in sorted(histogram_data):
            if name not in seen_hist_types:
                seen_hist_types.add(name)
                lines.append(f"# TYPE {name} histogram")
            for le, cumulative in buckets:
                lines.append(
                    f"{name}_bucket"
                    f"{_prometheus_labels(labels + [('le', _prometheus_num(le))])}"
                    f" {cumulative}"
                )
            lines.append(
                f"{name}_bucket"
                f"{_prometheus_labels(labels + [('le', '+Inf')])} {count}"
            )
            lines.append(
                f"{name}_sum{_prometheus_labels(labels)} {_prometheus_num(total)}"
            )
            lines.append(f"{name}_count{_prometheus_labels(labels)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=_json_default)
            handle.write("\n")


_TENANT_RE = re.compile(r"^qos\.tenant\.([^.]+)\.(.+)$")
_PROM_SAFE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_split(raw: str, prefix: str) -> tuple[str, list]:
    """``qos.tenant.<t>.rest`` -> (family name, [('tenant', t)])."""
    match = _TENANT_RE.match(raw)
    if match:
        tenant, rest = match.groups()
        return prefix + _PROM_SAFE_RE.sub("_", "qos.tenant." + rest), [
            ("tenant", tenant)
        ]
    return prefix + _PROM_SAFE_RE.sub("_", raw), []


def _prometheus_labels(labels) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_prometheus_escape(str(value))}"'
        for key, value in sorted(labels)
    )
    return "{" + rendered + "}"


def _prometheus_escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _prometheus_num(value) -> str:
    """A float in the shortest exact form Prometheus parses back."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _json_default(value):
    """Last-resort JSON coercion (numpy scalars and friends)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)
