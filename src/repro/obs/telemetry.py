"""End-to-end serving telemetry: wire-format traces, SLOs, forensics.

This module is the glue between the per-process observability layer
(:mod:`repro.obs.tracer`, :mod:`repro.obs.metrics`) and the serving
stack (:mod:`repro.serve`, :mod:`repro.net`).  Its four pillars read
the serving engine's one record of a query, its
:class:`~repro.serve.concurrent.QueryTicket`, once the outcome is
final; none keeps a copy of its own:

* **span-tree serialization** — :func:`span_to_dict` /
  :func:`span_from_dict` turn a tracer's span forest into the
  JSON-safe payload a RESULT frame can carry, and back;
  :func:`build_trace_payload` is a pure function of a traced ticket:
  its *wall-clock* phases (queued, plan+admission, execute) next to
  its *modelled-clock* engine span tree, correlated by
  seq/tenant/worker/stream attributes;
* **distributed trace stitching** — :func:`distributed_chrome_trace`
  merges many such payloads (possibly from several connections) into
  one Chrome/Perfetto trace document with a wall-clock lane per
  connection and a modelled lane per query, and
  :func:`validate_chrome_trace` is the in-tree conformance check CI
  and the tests share;
* **per-tenant SLOs** — :class:`SLOTracker` keeps latency histograms
  per tenant × query class, terminal-outcome counters
  (deadline-miss / backpressure / cancel / error) and error-budget
  burn against a configurable latency objective
  (:class:`SLObjective`);
* **flight recorder** — :class:`FlightRecorder` is a bounded ring of
  terminal tickets, rendered as records (sql, tenant, plan mode,
  adaptive switches, admission waits, outcome, span summary) only
  when dumped, so a failed or killed query is reconstructable after
  the fact regardless of workload length.

:func:`parse_prometheus_text` is a small validating parser for the
0.0.4 text exposition format — the round-trip half of
:meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`, kept
in-tree so CI needs no external Prometheus dependency.
"""

from __future__ import annotations

import json
import threading

from .export import _json_safe, chrome_trace_events
from .metrics import Histogram, MetricsRegistry
from .tracer import Span

# ---------------------------------------------------------------------------
# span-tree wire serialization
# ---------------------------------------------------------------------------


def span_to_dict(span: Span) -> dict:
    """One span subtree as a JSON-safe dict (attrs coerced, recursive)."""
    node: dict = {
        "name": span.name,
        "category": span.category,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
    }
    if span.attrs:
        node["attrs"] = {k: _json_safe(v) for k, v in span.attrs.items()}
    if span.kernel_launches:
        node["kernel_launches"] = span.kernel_launches
    if span.children:
        node["children"] = [span_to_dict(child) for child in span.children]
    return node


def span_from_dict(node: dict) -> Span:
    """The inverse of :func:`span_to_dict` (a real :class:`Span` tree)."""
    span = Span(
        node["name"], node["category"], node["start_ns"],
        dict(node["attrs"]) if node.get("attrs") else None,
    )
    span.end_ns = node.get("end_ns")
    span.kernel_launches = node.get("kernel_launches", 0)
    span.children = [span_from_dict(child) for child in node.get("children", [])]
    return span


def build_trace_payload(ticket) -> dict:
    """One traced query's distributed trace, wire-ready.

    A pure function of a terminal
    :class:`~repro.serve.concurrent.QueryTicket` that ran traced: its
    :meth:`~repro.serve.concurrent.QueryTicket.wall_phases` become
    offsets from the submit time (seconds), kept beside the absolute
    submit timestamp so payloads from one server process align on a
    common wall axis, and ``ticket.spans`` (the private tracer's
    exported roots) become the modelled-clock span tree.
    """
    submit = ticket.wall_submit_s
    roots, dropped = ticket.spans
    return {
        "query": {
            "seq": ticket.seq,
            "tenant": ticket.tenant or "default",
            "worker": ticket.worker,
            "stream": ticket.stream,
            "status": ticket.status,
        },
        "wall_submit_s": submit,
        "wall": [
            {"name": name, "start_s": start - submit, "dur_s": end - start}
            for name, start, end in ticket.wall_phases()
        ],
        "modelled": [span_to_dict(root) for root in roots],
        "dropped_spans": dropped,
    }


# ---------------------------------------------------------------------------
# distributed Chrome trace stitching
# ---------------------------------------------------------------------------

#: Synthetic pids for the two clock domains of a distributed trace.
WALL_PID = 1
MODELLED_PID = 2


def distributed_chrome_trace(payloads) -> dict:
    """Many query-trace payloads as one Chrome/Perfetto document.

    Lanes: the *wall-clock* process carries one thread per connection
    (every query's queued / plan+admission / execute phases are ``X``
    slices on its connection's lane, aligned on real time), and the
    *modelled-device-clock* process carries one thread per query (each
    query's engine span tree starts at its own zero — modelled clocks
    reset per query, so giving each query a lane keeps every ``B``/``E``
    pair properly nested).  Correlation attributes (seq, tenant,
    worker, stream, query_id when the payload carries one) ride on
    every event's ``args``.
    """
    payloads = list(payloads)
    events: list[dict] = []
    origin = min(
        (p["wall_submit_s"] for p in payloads), default=0.0,
    )
    events.append(_metadata(WALL_PID, "process_name", name="wall clock"))
    events.append(
        _metadata(MODELLED_PID, "process_name", name="modelled device clock")
    )
    seen_connections: set[int] = set()
    for payload in payloads:
        correlation = dict(payload.get("query", {}))
        if "query_id" in payload:
            correlation["query_id"] = payload["query_id"]
        connection = int(payload.get("connection", 0))
        if connection not in seen_connections:
            seen_connections.add(connection)
            events.append(_metadata(
                WALL_PID, "thread_name", tid=connection,
                name=f"connection {connection}",
            ))
        base_us = (payload["wall_submit_s"] - origin) * 1e6
        for phase in payload.get("wall", []):
            events.append({
                "name": phase["name"],
                "cat": "wall",
                "ph": "X",
                "ts": base_us + phase["start_s"] * 1e6,
                "dur": phase["dur_s"] * 1e6,
                "pid": WALL_PID,
                "tid": connection,
                "args": dict(correlation),
            })
        seq = correlation.get("seq", 0)
        stream = correlation.get("stream")
        events.append(_metadata(
            MODELLED_PID, "thread_name", tid=seq,
            name=f"query #{seq} (stream {stream})",
        ))
        roots = [span_from_dict(node) for node in payload.get("modelled", [])]
        for event in chrome_trace_events(roots, pid=MODELLED_PID, tid=seq):
            args = event.setdefault("args", {})
            args.update(
                (k, v) for k, v in correlation.items() if k not in args
            )
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "wall-us + modelled-device-ns",
            "queries": len(payloads),
            "dropped_spans": sum(
                p.get("dropped_spans", 0) for p in payloads
            ),
        },
    }


def _metadata(pid: int, kind: str, tid: int = 0, name: str = "") -> dict:
    return {
        "name": kind, "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def validate_chrome_trace(document: dict) -> int:
    """Check a Chrome trace document's structural invariants.

    Every ``B`` must close with an ``E`` in stack order *per (pid,
    tid) lane*, ``X`` events must carry non-negative durations, and
    metadata events are ignored.  Returns the event count; raises
    ``ValueError`` on the first violation.  This is the shared
    validator the CI smoke jobs and the tests import.
    """
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no events")
    stacks: dict[tuple, list] = {}
    for event in events:
        phase = event.get("ph")
        lane = (event.get("pid"), event.get("tid"))
        if phase == "M":
            continue
        if phase == "B":
            stacks.setdefault(lane, []).append(event)
        elif phase == "E":
            stack = stacks.get(lane)
            if not stack:
                raise ValueError(f"E without B on lane {lane}: {event}")
            begin = stack.pop()
            if event["ts"] < begin["ts"]:
                raise ValueError(
                    f"span ends before it starts on lane {lane}: "
                    f"{begin['name']}"
                )
        elif phase == "X":
            if event.get("dur", -1) < 0:
                raise ValueError(f"X event without a duration: {event}")
        else:
            raise ValueError(f"unknown event phase {phase!r}: {event}")
    for lane, stack in stacks.items():
        if stack:
            raise ValueError(
                f"unclosed spans on lane {lane}: "
                f"{[e['name'] for e in stack]}"
            )
    return len(events)


# ---------------------------------------------------------------------------
# per-tenant SLOs
# ---------------------------------------------------------------------------


class SLObjective:
    """A latency objective: ``target`` of queries within ``latency_ms``.

    The error budget is the allowed violation fraction ``1 - target``;
    burn is the observed violation fraction divided by the budget, so
    ``burn < 1`` means the tenant is inside its SLO and ``burn == 2``
    means violations are arriving at twice the sustainable rate.
    """

    __slots__ = ("latency_ms", "target")

    def __init__(self, latency_ms: float = 1000.0, target: float = 0.99):
        if latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        self.latency_ms = float(latency_ms)
        self.target = float(target)

    def to_dict(self) -> dict:
        return {"latency_ms": self.latency_ms, "target": self.target}


#: Terminal outcomes the tracker counts; "ok" means completed.
OUTCOMES = ("ok", "error", "cancelled", "deadline", "rejected")


class _TenantSLO:
    """One tenant's rolling SLO state (guarded by the tracker's lock)."""

    __slots__ = (
        "objective", "latency", "by_class", "outcomes",
        "good", "total", "backpressure",
    )

    def __init__(self, objective: SLObjective):
        self.objective = objective
        self.latency = Histogram("latency_ms")
        self.by_class: dict[str, Histogram] = {}
        self.outcomes = {outcome: 0 for outcome in OUTCOMES}
        self.good = 0
        self.total = 0
        self.backpressure = 0


class SLOTracker:
    """Per-tenant latency SLOs over end-to-end (submit → terminal) time.

    ``observe`` classifies each terminal query by tenant and *query
    class* (the plan path — nested/unnested — is the serving stack's
    choice) and scores it against the tenant's objective: a query is
    *good* when it completed ok within the latency objective;
    everything else — slow, errored, cancelled, deadline-missed,
    rejected — burns error budget.  When a :class:`MetricsRegistry` is
    attached, per-tenant series are mirrored under
    ``qos.tenant.<name>.slo.*`` so they ride the STATS frame and the
    Prometheus exposition for free.
    """

    def __init__(
        self,
        objectives: dict[str, SLObjective] | None = None,
        default: SLObjective | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.default = default if default is not None else SLObjective()
        self.objectives = dict(objectives or {})
        self.metrics = metrics
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantSLO] = {}

    def objective(self, tenant: str) -> SLObjective:
        return self.objectives.get(tenant, self.default)

    def _tenant(self, tenant: str) -> _TenantSLO:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantSLO(self.objective(tenant))
        return state

    def observe(
        self,
        tenant: str,
        latency_ms: float,
        outcome: str = "ok",
        query_class: str = "unknown",
    ) -> None:
        """Score one terminal query against its tenant's objective."""
        if outcome not in OUTCOMES:
            raise ValueError(
                f"unknown outcome {outcome!r}; expected one of {OUTCOMES}"
            )
        with self._lock:
            state = self._tenant(tenant)
            state.latency.observe(latency_ms)
            by_class = state.by_class.get(query_class)
            if by_class is None:
                by_class = state.by_class[query_class] = Histogram(query_class)
            by_class.observe(latency_ms)
            state.outcomes[outcome] += 1
            state.total += 1
            if outcome == "ok" and latency_ms <= state.objective.latency_ms:
                state.good += 1
        metrics = self.metrics
        if metrics is not None:
            prefix = f"qos.tenant.{tenant}.slo"
            metrics.histogram(f"{prefix}.latency_ms").observe(latency_ms)
            if outcome == "deadline":
                metrics.counter(f"{prefix}.deadline_missed").inc()
            elif outcome != "ok":
                metrics.counter(f"{prefix}.{outcome}").inc()

    def note_backpressure(self, tenant: str) -> None:
        """Count a submission pushed back by the bounded queue."""
        with self._lock:
            self._tenant(tenant).backpressure += 1
        if self.metrics is not None:
            self.metrics.counter(
                f"qos.tenant.{tenant}.slo.backpressure"
            ).inc()

    @staticmethod
    def _burn(state: _TenantSLO) -> float:
        if state.total == 0:
            return 0.0
        violation_fraction = (state.total - state.good) / state.total
        budget = 1.0 - state.objective.target
        return violation_fraction / budget

    def snapshot(self) -> dict[str, dict]:
        """Every tenant's SLO state, JSON-ready (a consistent view)."""
        with self._lock:
            out = {}
            for name in sorted(self._tenants):
                state = self._tenants[name]
                out[name] = {
                    "objective": state.objective.to_dict(),
                    "latency_ms": {
                        "count": state.latency.count,
                        "mean": state.latency.mean,
                        **state.latency.percentiles(),
                    },
                    "by_class": {
                        klass: {
                            "count": hist.count,
                            **hist.percentiles(),
                        }
                        for klass, hist in sorted(state.by_class.items())
                    },
                    "outcomes": dict(state.outcomes),
                    "deadline_missed": state.outcomes["deadline"],
                    "backpressure": state.backpressure,
                    "good": state.good,
                    "total": state.total,
                    "error_budget_burn": self._burn(state),
                }
            return out


# ---------------------------------------------------------------------------
# the flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """A bounded ring of per-query forensic records (always on).

    Every terminal query — ok, error, cancelled, deadline-missed,
    rejected — enters the ring as its ticket, an object whose
    ``flight_dict()`` is the record; a dump turns each into a JSON-safe
    dict.  The ring holds the most recent ``capacity`` tickets
    regardless of workload length; ``recorded`` counts everything ever
    seen and ``dropped`` the overflow, so a dump is honest about what
    it no longer holds.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.recorded = 0
        self._lock = threading.Lock()
        self._ring: list = []

    def record(self, ticket) -> None:
        """Append one terminal ticket."""
        with self._lock:
            self.recorded += 1
            self._ring.append(ticket)
            overflow = len(self._ring) - self.capacity
            if overflow > 0:
                del self._ring[:overflow]

    @property
    def dropped(self) -> int:
        with self._lock:
            return self.recorded - len(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, limit: int | None = None) -> list[dict]:
        """The newest-last record list (optionally only the last N)."""
        with self._lock:
            tickets = list(self._ring)
        if limit is not None and limit >= 0:
            tickets = tickets[-limit:]
        return [
            {k: _json_safe(v) for k, v in ticket.flight_dict().items()}
            for ticket in tickets
        ]

    def to_dict(self, limit: int | None = None) -> dict:
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "records": self.dump(limit),
        }

    def write_json(self, path, limit: int | None = None) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(limit), handle, indent=2)
            handle.write("\n")


# ---------------------------------------------------------------------------
# Prometheus text parsing (the round-trip half, in-tree)
# ---------------------------------------------------------------------------


def parse_prometheus_text(text: str) -> dict:
    """Parse and validate Prometheus 0.0.4 text exposition.

    Returns ``{"types": {family: kind}, "samples": [(name, labels,
    value)]}``.  Validates what a scraper would reject: samples whose
    family carries no TYPE line, unparsable values, histogram bucket
    series that are non-monotonic in ``le`` or disagree with their
    ``_count``.  Raises ``ValueError`` on the first violation — this
    is CI's no-external-dependency round-trip check.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: malformed TYPE: {line}")
                types[parts[2]] = parts[3]
            continue
        samples.append(_parse_sample(stripped, lineno))
    buckets: dict[tuple, list] = {}
    counts: dict[tuple, float] = {}
    for name, labels, value in samples:
        family = _sample_family(name, types)
        if family is None:
            raise ValueError(f"sample {name} has no # TYPE line")
        if types[family] == "histogram":
            key = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    raise ValueError(f"{name}: _bucket sample without le")
                buckets.setdefault((family, key), []).append(
                    (math_inf_parse(le), value)
                )
            elif name.endswith("_count"):
                counts[(family, key)] = value
    for key, series in buckets.items():
        series.sort()
        cumulative = [count for _, count in series]
        if any(b < a for a, b in zip(cumulative, cumulative[1:])):
            raise ValueError(f"{key[0]}: non-monotonic histogram buckets")
        if not series or series[-1][0] != float("inf"):
            raise ValueError(f"{key[0]}: histogram without a +Inf bucket")
        if key in counts and series[-1][1] != counts[key]:
            raise ValueError(
                f"{key[0]}: +Inf bucket {series[-1][1]} != _count {counts[key]}"
            )
    return {"types": types, "samples": samples}


def math_inf_parse(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def _sample_family(name: str, types: dict) -> str | None:
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return None


def _parse_sample(line: str, lineno: int) -> tuple[str, dict, float]:
    brace = line.find("{")
    labels: dict[str, str] = {}
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            raise ValueError(f"line {lineno}: unbalanced braces: {line}")
        name = line[:brace]
        label_text = line[brace + 1:close]
        rest = line[close + 1:].strip()
        for part in _split_labels(label_text):
            eq = part.find("=")
            if eq < 0 or len(part) < eq + 3 or part[eq + 1] != '"' \
                    or not part.endswith('"'):
                raise ValueError(f"line {lineno}: malformed label: {part!r}")
            labels[part[:eq]] = (
                part[eq + 2:-1]
                .replace(r"\n", "\n").replace(r"\"", '"').replace("\\\\", "\\")
            )
    else:
        name, _, rest = line.partition(" ")
        rest = rest.strip()
    value_text = rest.split()[0] if rest else ""
    try:
        value = math_inf_parse(value_text)
    except ValueError:
        raise ValueError(
            f"line {lineno}: unparsable value {value_text!r}"
        ) from None
    if not name:
        raise ValueError(f"line {lineno}: sample without a name")
    return name, labels, value


def _split_labels(text: str):
    """Split ``a="x",b="y,z"`` on commas outside quoted values."""
    parts = []
    current = []
    in_quotes = False
    escaped = False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            if current:
                parts.append("".join(current))
                current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return parts
