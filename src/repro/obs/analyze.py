"""EXPLAIN ANALYZE: run a query under the tracer and render the plan
tree annotated with measured (modelled) per-operator cost.

This module is imported lazily (``NestGPU.explain(analyze=True)``,
``repro.cli --analyze``) so that :mod:`repro.obs` itself stays free of
engine imports.
"""

from __future__ import annotations

from .export import write_chrome_trace
from .tracer import Tracer


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.4f} ms"


def explain_analyze(system, sql, mode=None, tracer=None, metrics=None):
    """Execute ``sql`` on ``system`` with tracing on and return an
    :class:`AnalyzeReport`.

    A fresh enabled :class:`Tracer` is created unless one is passed in;
    either way the report keeps a reference so the caller can export
    the trace afterwards.
    """
    if tracer is None:
        tracer = Tracer()
    query_span = None
    if tracer.enabled:
        from ..core.executor import _sql_snippet

        query_span = tracer.begin("query", "query", sql=_sql_snippet(sql))
    try:
        prepared = system.prepare(sql, mode, tracer=tracer)
        result = system.run_prepared(prepared, tracer=tracer, metrics=metrics)
    finally:
        if query_span is not None:
            tracer.end(query_span)
    return AnalyzeReport(prepared, result, tracer)


class AnalyzeReport:
    """A completed EXPLAIN ANALYZE run: prepared query, result, trace."""

    def __init__(self, prepared, result, tracer):
        self.prepared = prepared
        self.result = result
        self.tracer = tracer
        # node identity -> registry index (the key of node_times_ns)
        self._node_ids = {
            id(node): i for i, node in enumerate(prepared.program.nodes)
        }

    # -- accounting ---------------------------------------------------------

    def node_ns(self, node) -> float:
        """Total modelled ns attributed to one plan node, merging the
        loop-path registry times with the vectorized-path profile."""
        r = self.result
        ns = r.node_times_ns.get(self._node_ids.get(id(node), -1), 0.0)
        ns += r.vector_node_ns.get(id(node), 0.0)
        return ns

    def accounting(self) -> dict[str, float]:
        """Where the modelled time went, in ns.  The buckets are
        disjoint by construction and ``unattributed`` closes the sum to
        ``stats.total_ns`` exactly."""
        r = self.result
        operators = sum(r.node_times_ns.values()) + sum(
            r.vector_node_ns.values()
        )
        overhead = sum(r.subquery_overhead_ns.values())
        total = r.stats.total_ns
        attributed = r.preload_ns + operators + overhead + r.fetch_ns
        return {
            "preload_ns": r.preload_ns,
            "operators_ns": operators,
            "subquery_setup_ns": overhead,
            "fetch_ns": r.fetch_ns,
            "unattributed_ns": total - attributed,
            "total_ns": total,
        }

    # -- rendering ----------------------------------------------------------

    def _annotate(self, node, extra: str = "") -> str:
        r = self.result
        nid = self._node_ids.get(id(node))
        parts = [f"actual={_ms(self.node_ns(node))}"]
        if nid is not None:
            if nid in r.node_output_rows:
                parts.append(f"rows={r.node_output_rows[nid]}")
            if r.node_calls.get(nid, 0) > 1:
                parts.append(f"calls={r.node_calls[nid]}")
            if r.node_launches.get(nid):
                parts.append(f"launches={r.node_launches[nid]}")
        if extra:
            parts.append(extra)
        return "  (" + ", ".join(parts) + ")"

    def _tree_lines(self, plan, info=None, indent: int = 1) -> list[str]:
        lines = []

        def visit(node, depth):
            mark = ""
            if info is not None:
                mark = (
                    "[transient] " if info.is_transient(node)
                    else "[invariant] "
                )
            lines.append(
                "  " * depth + mark + str(node) + self._annotate(node)
            )
            for child in node.children():
                visit(child, depth + 1)

        visit(plan, indent)
        return lines

    def render(self) -> str:
        p, r = self.prepared, self.result
        lines = [f"EXPLAIN ANALYZE — execution path: {p.choice}"]
        if p.sql:
            lines.append(f"query: {' '.join(p.sql.split())}")
        summary = (
            f"modelled time: {r.total_ms:.4f} ms   rows: {r.num_rows}"
            f"   kernel launches: {r.stats.kernel_launches}"
        )
        if r.predicted_error_pct is not None:
            summary += (
                f"   cost model predicted: {r.predicted_ms:.4f} ms"
                f" ({r.predicted_error_pct:+.1f}%)"
            )
        decision = p.fusion_decision
        if decision.source != "off":
            fusion = f"fusion: {decision.describe()}"
            # an analytic decision measured nothing: this run is its proof
            if r.stats.fused_launches or decision.source == "analytic":
                fusion += (
                    f"   fused launches: {r.stats.fused_launches}"
                    f" (absorbed {r.stats.fused_kernels} kernels, saved "
                    f"{r.stats.fused_kernels - r.stats.fused_launches}"
                    " launches)"
                )
            lines.append(fusion)
        lines += [summary, "", "outer plan:"]
        lines += self._tree_lines(p.plan)
        for k, spec in enumerate(p.program.specs):
            descriptor = spec.descriptor
            key = descriptor.index
            corr = (
                ", correlated on " + ", ".join(descriptor.free_quals)
                if descriptor.free_quals else ""
            )
            lines += ["", f"subquery #{k} ({descriptor.kind}{corr}):"]
            iters = r.subquery_iterations.get(key, 0)
            batches = r.subquery_batches.get(key, 0)
            hits, misses = r.subquery_cache.get(key, (0, 0))
            stat_parts = [
                f"path={r.subquery_paths.get(key, '-')}",
                f"iterations={iters}",
            ]
            if batches:
                stat_parts.append(f"vectorized batches={batches}")
            if hits or misses:
                total = hits + misses
                stat_parts.append(
                    f"cache hits={hits}/{total}"
                    f" ({hits / total:.0%})"
                )
            stat_parts.append(
                "setup " + _ms(r.subquery_overhead_ns.get(key, 0.0))
            )
            lines.append("  " + "   ".join(stat_parts))
            lines += self._tree_lines(spec.plan, spec.info)
        acc = self.accounting()
        lines += [
            "",
            "time accounting:",
            f"  preload (PCIe + alloc)  {_ms(acc['preload_ns'])}",
            f"  plan operators          {_ms(acc['operators_ns'])}",
            f"  subquery setup          {_ms(acc['subquery_setup_ns'])}",
            f"  result fetch            {_ms(acc['fetch_ns'])}",
            f"  unattributed            {_ms(acc['unattributed_ns'])}",
            f"  total                   {_ms(acc['total_ns'])}",
        ]
        return "\n".join(lines)

    def write_trace(self, path) -> None:
        """Finish the trace (if still open) and export Chrome JSON."""
        self.tracer.finish()
        write_chrome_trace(path, self.tracer)
