"""Hierarchical span tracing keyed to the modelled device clock.

Spans nest query -> phase (parse/bind/plan/codegen/execute) -> plan
operator -> subquery iteration/batch -> kernel/transfer leaves.  Every
timestamp is *modelled* device time (``ExecutionStats.total_ns``), not
wall-clock, so a trace of the same query is deterministic and the
tracer can never perturb the numbers it reports: recording a span
charges nothing to the device.

The default tracer everywhere is :data:`NULL_TRACER`, whose methods do
nothing; instrumentation sites guard hot paths with ``tracer.enabled``
so the disabled mode costs one attribute check.

Thread safety: every recording operation (begin/end/leaf and the loop
helpers) is atomic under the tracer's internal lock, so concurrent
threads can never corrupt the span forest, lose a span, or tear the
``dropped`` counter.  The *nesting* of structural spans, however,
follows one shared stack — interleaved begin/end pairs from two
threads would parent each other's spans — so concurrent serving keeps
whole query executions serialized under the session lock and only
``leaf``-level events are meaningful from arbitrary threads.
"""

from __future__ import annotations

import threading
import time

#: Categories rendered as begin/end pairs in the Chrome trace.  Their
#: children's time is *theirs* (a subquery span contains its
#: iterations); everything else ("kernel", "transfer", "materialize",
#: "malloc") is a leaf whose time belongs to the enclosing structural
#: span's self time.
STRUCTURAL_CATEGORIES = frozenset(
    {"session", "query", "phase", "operator", "subquery", "iteration", "batch"}
)

#: Categories an ``end_iteration`` scan must not cross: reaching one of
#: these means the nearest open iteration belongs to an *enclosing*
#: loop level, not to the caller.
_BOUNDARY_CATEGORIES = frozenset({"subquery", "batch", "phase", "query"})


class Span:
    """One timed region on the modelled clock, with child spans."""

    __slots__ = ("name", "category", "start_ns", "end_ns", "attrs",
                 "children", "kernel_launches", "_wall")

    def __init__(self, name: str, category: str, start_ns: float,
                 attrs: dict | None = None):
        self.name = name
        self.category = category
        self.start_ns = start_ns
        self.end_ns: float | None = None
        self.attrs = attrs
        self.children: list[Span] = []
        self.kernel_launches = 0
        self._wall: float | None = None

    @property
    def duration_ns(self) -> float:
        end = self.start_ns if self.end_ns is None else self.end_ns
        return end - self.start_ns

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find_all(self, category: str) -> list["Span"]:
        return [span for span in self.walk() if span.category == category]

    def set_attrs(self, **attrs) -> None:
        self.attrs = {**(self.attrs or {}), **attrs}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.category}:{self.name} "
            f"{self.start_ns:.0f}..{self.end_ns} "
            f"children={len(self.children)}>"
        )


class _NullContext:
    """Shared no-op context manager returned by ``NullTracer.span``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The zero-cost default: every operation is a no-op.

    Instrumentation sites may either call these methods directly (cold
    paths) or skip the call entirely after checking ``enabled`` (hot
    paths); both are correct.
    """

    enabled = False

    def bind_device(self, device) -> None:
        pass

    def begin(self, name: str, category: str, **attrs):
        return None

    def end(self, span=None, **attrs):
        return None

    def leaf(self, name: str, category: str, duration_ns: float, **attrs) -> None:
        pass

    def span(self, name: str, category: str, **attrs):
        return _NULL_CONTEXT

    def close_siblings(self, category: str) -> None:
        pass

    def end_iteration(self, **attrs):
        return None

    def finish(self) -> None:
        pass


#: The process-wide disabled tracer (safe to share: it holds no state).
NULL_TRACER = NullTracer()


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self._span)
        return False


class Tracer(NullTracer):
    """Records a forest of :class:`Span` trees on the modelled clock.

    The clock is read from the currently bound device's running stats;
    when a new device is bound (each ``run_prepared`` creates one, with
    its clock at zero) timestamps are rebased so a multi-query trace
    stays monotonic.

    ``max_spans`` bounds memory on pathological traces: spans past the
    cap still participate in stack discipline but are not recorded, and
    ``dropped`` counts them.
    """

    enabled = True

    def __init__(self, max_spans: int = 200_000):
        self.roots: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._count = 0
        self._max_spans = max_spans
        self._device = None
        self._offset = 0.0
        self._max_ts = 0.0
        # reentrant: the loop helpers (close_siblings, finish) call end()
        self._lock = threading.RLock()

    # -- clock ----------------------------------------------------------

    def now(self) -> float:
        if self._device is None:
            return self._offset
        return self._offset + self._device.stats.total_ns

    def bind_device(self, device) -> None:
        """Start reading the clock from ``device`` (rebased)."""
        with self._lock:
            self._offset = self._max_ts
            self._device = device

    # -- spans ----------------------------------------------------------

    def begin(self, name: str, category: str, **attrs) -> Span:
        with self._lock:
            ts = self.now()
            if ts > self._max_ts:
                self._max_ts = ts
            span = Span(name, category, ts, attrs or None)
            span._wall = time.perf_counter()
            if self._count >= self._max_spans:
                self.dropped += 1
            else:
                self._count += 1
                if self._stack:
                    self._stack[-1].children.append(span)
                else:
                    self.roots.append(span)
            self._stack.append(span)
            return span

    def end(self, span: Span | None = None, **attrs) -> Span | None:
        """Close the top span, or pop down to (and close) ``span``.

        Closing a specific span also closes anything opened inside it
        that was left dangling — the stack discipline an exception path
        relies on.
        """
        with self._lock:
            if span is not None and span not in self._stack:
                return None
            ts = self.now()
            if ts > self._max_ts:
                self._max_ts = ts
            while self._stack:
                top = self._stack.pop()
                top.end_ns = ts
                if top is span or span is None:
                    if attrs:
                        top.set_attrs(**attrs)
                    if top.category in ("query", "phase") and top._wall is not None:
                        top.set_attrs(
                            wall_us=(time.perf_counter() - top._wall) * 1e6
                        )
                    return top
            return None

    def span(self, name: str, category: str, **attrs) -> _SpanContext:
        return _SpanContext(self, self.begin(name, category, **attrs))

    def leaf(self, name: str, category: str, duration_ns: float, **attrs) -> None:
        """Record an already-charged device event (kernel, transfer).

        Called *after* the charge, so the event ends at ``now()``.
        """
        with self._lock:
            end_ns = self.now()
            if end_ns > self._max_ts:
                self._max_ts = end_ns
            parent = self._stack[-1] if self._stack else None
            if category == "kernel" and parent is not None:
                parent.kernel_launches += 1
            if self._count >= self._max_spans:
                self.dropped += 1
                return
            self._count += 1
            span = Span(name, category, end_ns - duration_ns, attrs or None)
            span.end_ns = end_ns
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    # -- loop discipline --------------------------------------------------

    def close_siblings(self, category: str) -> None:
        """Close consecutive open spans of ``category`` at the top.

        The runtime has no explicit "subquery done" hook — the next
        subquery (or the predicate application) closes its predecessor.
        """
        with self._lock:
            while self._stack and self._stack[-1].category == category:
                self.end()

    def end_iteration(self, **attrs) -> Span | None:
        """Close the innermost open iteration span, if any.

        Stops at subquery/batch/phase boundaries so a store inside a
        vectorized batch never closes an *enclosing* loop's iteration.
        """
        with self._lock:
            for span in reversed(self._stack):
                if span.category == "iteration":
                    return self.end(span, **attrs)
                if span.category in _BOUNDARY_CATEGORIES:
                    return None
            return None

    def finish(self) -> None:
        """Close every span still open (end of a trace session)."""
        with self._lock:
            while self._stack:
                self.end()

    def export_roots(self) -> tuple[list[Span], int]:
        """A consistent ``(roots, dropped)`` snapshot for serialization.

        The list is a copy taken under the lock, so an exporter on one
        thread never sees a root appear mid-iteration; the spans
        themselves are shared (exporters run after ``finish``).
        """
        with self._lock:
            return list(self.roots), self.dropped
