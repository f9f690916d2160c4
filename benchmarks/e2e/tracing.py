"""The benchmark's own span recorder and the shims it installs.

Spans are opened from the benchmark's files only: by hand around a
call into a layer, or by a timing shim wrapped around one of the
layer's *public* callables for the duration of a traced run.  Nothing
under ``src/`` is edited; :meth:`SpanRecorder.remove_shims` restores
every wrapped attribute, and an untraced run wraps nothing.

A span is ``[name, layer, start, end, parent, root, tid]`` with
``parent``/``root`` as indices into :attr:`SpanRecorder.spans`; the
spans of one query share its root.  Self time is a span's duration
minus the part its children cover.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, LAYER, START, END, PARENT, ROOT, TID = range(7)

# Runtime's public operator entry points, by the layer whose work
# they front: outer-plan operators call straight into engine.operators;
# the rest is the SUBQ loop machinery of core.runtime.
_ENGINE_OPS = (
    "scan", "f_scan", "join", "cross_join", "filter", "f_filter",
    "semi_join", "aggregate", "project", "distinct", "sort", "limit",
    "left_lookup",
)
_SUBQ_OPS = (
    "correlated_values", "uncorrelated_vector", "eval_invariants",
    "run_vector_batch", "invariant", "t_scan", "t_f_scan", "t_join",
    "t_filter", "t_f_filter", "t_aggregate", "t_project",
    "apply_subquery_predicate", "f_apply_subquery_predicate",
    "append_subquery_column",
)


def _build_name(builder, *_args, **_kwargs) -> str:
    return "unnest" if builder.unnest else "build"


#: ``(module, class or None, attribute, span name, layer)``.  Functions
#: imported by name are patched in the importing module's namespace,
#: which is where the call site looks them up.
SHIMS = [
    ("repro.core.executor", None, "parse", "parse", "sql"),
    ("repro.plan.binder", "Binder", "bind", "bind", "plan"),
    ("repro.plan.builder", "PlanBuilder", "build", _build_name, "plan"),
    ("repro.core.executor", None, "generate_drive_program",
     "generate", "core.codegen"),
    ("repro.core.sharded", None, "generate_drive_program",
     "generate", "core.codegen"),
    ("repro.core.costmodel", None, "predict_paths",
     "predict", "core.costmodel"),
    ("repro.core.fusion", "FusionTuner", "decide", "tuner", "core.fusion"),
    ("repro.core.executor", "NestGPU", "prepare", "prepare", "core.executor"),
    ("repro.core.executor", "NestGPU", "run_prepared", "run", "core.executor"),
    ("repro.core.sharded", "ShardedEngine", "prepare",
     "prepare", "core.sharded"),
    ("repro.core.sharded", "ShardedEngine", "run_prepared",
     "run", "core.sharded"),
    ("repro.serve.session", "EngineSession", "lookup_or_prepare",
     "lookup", "serve.plancache"),
    ("repro.serve.session", "EngineSession", "run", "run", "serve.session"),
    ("repro.engine.context", "ExecutionContext", "preload",
     "preload", "engine"),
    ("repro.engine.relation", "Relation", "decode_rows", "fetch", "engine"),
    ("repro.core.runtime", "Runtime", "fetch", "fetch", "engine"),
    *[("repro.core.runtime", "Runtime", op, f"op.{op}", "engine")
      for op in _ENGINE_OPS],
    *[("repro.core.runtime", "Runtime", op, f"subq.{op}", "core.runtime")
      for op in _SUBQ_OPS],
]


class SpanRecorder:
    """In-memory spans, one stack per thread, written out at exit."""

    def __init__(self):
        self.spans: list[list] = []
        #: counts made at the same boundaries as the spans
        self.counts: Counter = Counter()
        self._append_lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, layer, 0.0, 0.0, parent, -1, threading.get_ident()]
        with self._append_lock:
            index = len(self.spans)
            self.spans.append(span)
        span[ROOT] = index if parent < 0 else self.spans[parent][ROOT]
        stack.append(index)
        span[START] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        index = self.begin(name, layer)
        try:
            yield index
        finally:
            self.end(index)

    # -- shims -----------------------------------------------------------

    def install_shims(self) -> None:
        for module_name, cls, attr, name, layer in SHIMS:
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            setattr(owner, attr, self._shim(original, name, layer))
            self._patched.append((owner, attr, original))

    def remove_shims(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _shim(self, original, name, layer):
        begin, end = self.begin, self.end

        def shim(*args, **kwargs):
            index = begin(
                name(*args, **kwargs) if callable(name) else name, layer
            )
            try:
                return original(*args, **kwargs)
            finally:
                end(index)

        shim.__wrapped__ = original
        return shim

    # -- analysis --------------------------------------------------------

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def self_times(self) -> list[float]:
        """Per span: duration minus what its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent does."""
        bad = 0
        for span in self.spans:
            if span[PARENT] < 0:
                continue
            parent = self.spans[span[PARENT]]
            if span[START] < parent[START] or span[END] > parent[END]:
                bad += 1
        return bad

    # -- export ----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The spans as Chrome ``traceEvents`` (complete events, µs)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[START] for span in self.spans)
        tids = {}
        events = []
        for index, span in enumerate(self.spans):
            tid = tids.setdefault(span[TID], len(tids))
            events.append({
                "name": f"{span[LAYER]}:{span[NAME]}",
                "cat": span[LAYER],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {
                    "span": index,
                    "parent": span[PARENT],
                    "query_id": span[ROOT],
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
