"""Per-layer metrics from one traced phase.

Wall numbers come from the benchmark's spans; modelled numbers and
counts come from public result fields (``QueryResult.*``,
``ExecutionStats``, ``session.stats()``, ``AsyncEngine.report()``,
``NetResult.stats``) and repeat exactly.  A metric whose layer is not
on the workload's path is left out (absent, not zero).
"""

from __future__ import annotations

import ast
import statistics
from pathlib import Path
from time import perf_counter

from repro.net import FrameDecoder, Opcode, encode_frame, encode_rows

from tracing import LAYER, NAME, PARENT, ROOT
from workloads import modelled_ns


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


class SpanView:
    """Durations grouped by ``(layer, name)`` and by what the span's
    root was for: a timed ``query``, the ``warmup``, or a compile
    ``replay``.  Roots opened by shims on other threads (the server's
    workers) count as ``query``."""

    def __init__(self, recorder):
        self.recorder = recorder
        spans = recorder.spans
        self.root_kind = {
            i: span[NAME] for i, span in enumerate(spans)
            if span[PARENT] < 0 and span[NAME] in ("replay", "warmup")
        }
        self.own = recorder.self_times()
        self.by_key: dict[tuple, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_key.setdefault((span[LAYER], span[NAME]), []).append(i)

    def kind(self, index: int) -> str:
        return self.root_kind.get(self.recorder.spans[index][ROOT], "query")

    def indices(self, layer: str, name: str, kind: str = "query") -> list[int]:
        return [
            i for i in self.by_key.get((layer, name), ())
            if self.kind(i) == kind
        ]

    def durations(self, layer: str, name: str, kind: str = "query"):
        return [self.recorder.duration(i)
                for i in self.indices(layer, name, kind)]

    def total(self, layer: str, name: str, kind: str = "query") -> float:
        return sum(self.durations(layer, name, kind))

    def self_time_in_run(self, layer: str, prefix: str) -> float:
        """Self time of ``layer`` spans named ``prefix*`` that sit under
        an execute (not under a prepare: the cost model and the tuner
        run operators too)."""
        total = 0.0
        for (span_layer, name), indices in self.by_key.items():
            if span_layer != layer or not name.startswith(prefix):
                continue
            for i in indices:
                if self.kind(i) == "query" and not self._under_prepare(i):
                    total += self.own[i]
        return total

    def _under_prepare(self, index: int) -> bool:
        spans = self.recorder.spans
        parent = spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == "prepare":
                return True
            parent = spans[parent][PARENT]
        return False


def _served_entries(workload) -> list:
    """The engine's own report of the timed queries of ``net_loopback``
    (the warm-up submissions come first and are skipped)."""
    return [
        entry for entry in workload.engine.report().queries
        if entry.seq >= workload.warmup_queries
    ]


def compute(workload, recorder, phase, untraced, plan_cache_before) -> dict:
    """Every per-layer metric this workload's traced phase supports."""
    view = SpanView(recorder)
    if workload.name == "net_loopback":
        # over the network the client sees rows and a stats dict only;
        # the QueryResults come from the engine's report
        entries = _served_entries(workload)
        results = [e.result for e in entries if e.result is not None]
    else:
        results = [record[2] for record in phase.records]
    queries = len(results)
    ms = 1e3
    out: dict[str, float | None] = {}

    def per_call_ms(layer, name):
        return _mean(d * ms for d in view.durations(layer, name))

    def per_query(total):
        return _ratio(total, queries)

    # -- compile layers: shims give per-call time and exact call counts -----
    compiled = len(view.indices("core.executor", "prepare"))
    out["sql.parse_ms"] = per_call_ms("sql", "parse")
    out["plan.bind_ms"] = per_call_ms("plan", "bind")
    out["core.codegen.generate_ms"] = per_call_ms("core.codegen", "generate")
    out["core.costmodel.predict_ms"] = per_call_ms("core.costmodel", "predict")
    for metric, layer, name in (
        ("sql.parse_calls_per_query", "sql", "parse"),
        ("plan.bind_calls_per_query", "plan", "bind"),
        ("core.codegen.generate_calls_per_query", "core.codegen", "generate"),
    ):
        out[metric] = _ratio(len(view.indices(layer, name)), compiled)

    # -- the by-hand replay gives one-of-each stage time ---------------------
    replays = sum(k == "replay" for k in view.root_kind.values())
    stage_total = 0.0
    for metric, layer, name in (
        (None, "sql", "stage.parse"),
        (None, "plan", "stage.bind"),
        ("plan.build_ms", "plan", "stage.build"),
        ("plan.unnest_ms", "plan", "stage.unnest"),
        (None, "core.codegen", "stage.codegen"),
        ("core.fusion.tuner_ms", "core.fusion", "stage.tuner"),
        (None, "core.costmodel", "stage.predict"),
    ):
        total = view.total(layer, name, kind="replay")
        stage_total += total
        if metric is not None:
            out[metric] = _ratio(total * ms, replays)
    out["plan.unnest_refused_share"] = _ratio(
        recorder.counts["unnest_refused"], recorder.counts["unnest_attempts"]
    )
    prepare_total = view.total("core.executor", "prepare")
    query_total = view.total("bench", "query")
    out["core.executor.prepare_ms"] = per_call_ms("core.executor", "prepare")
    if replays:
        out["core.executor.prepare_unattributed_ms"] = (
            (prepare_total - stage_total) * ms / replays
        )
    out["core.executor.prepare_share"] = _ratio(prepare_total, query_total)
    out["core.executor.run_ms"] = per_call_ms("core.executor", "run")

    # -- exact counts and modelled time from the results ---------------------
    stats = [r.stats for r in results]
    out["core.codegen.source_bytes"] = _mean(
        len(r.drive_source.encode()) for r in results
    )
    predicted = [r for r in results if r.predicted_ms is not None]
    out["core.costmodel.pred_err_share"] = _mean(
        abs(r.predicted_ms - r.total_ms) / r.total_ms for r in predicted
    )
    chosen = [r.plan_choice for r in results
              if r.plan_choice in ("nested", "unnested")]
    if compiled:
        out["core.costmodel.nested_chosen_share"] = _ratio(
            chosen.count("nested"), len(chosen)
        )
    launches = sum(s.kernel_launches for s in stats)
    out["core.fusion.fused_launch_share"] = _ratio(
        sum(s.fused_launches for s in stats), launches
    )
    iterations = sum(sum(r.subquery_iterations.values()) for r in results)
    hits = sum(r.cache_hits for r in results)
    misses = sum(r.cache_misses for r in results)
    out["core.runtime.subq_iterations_per_query"] = per_query(iterations)
    out["core.runtime.subq_batches_per_query"] = per_query(
        sum(sum(r.subquery_batches.values()) for r in results)
    )
    out["core.runtime.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["core.runtime.index_probes_per_query"] = per_query(
        sum(r.index_probes for r in results)
    )
    out["core.runtime.pool_restores_per_query"] = per_query(
        sum(r.pool_restores for r in results)
    )
    out["core.runtime.adaptive_switch_share"] = per_query(
        sum(r.adaptive_switch for r in results)
    )
    overhead_ns = sum(sum(r.subquery_overhead_ns.values()) for r in results)
    out["core.runtime.subq_overhead_modelled_ms"] = per_query(overhead_ns / 1e6)
    run_total = (
        view.total("core.executor", "run") + view.total("core.sharded", "run")
    )
    out["core.runtime.subq_ms"] = per_query(
        view.self_time_in_run("core.runtime", "subq.") * ms
    )
    out["core.runtime.iter_wall_us"] = _ratio(run_total * 1e6, iterations)

    out["engine.preload_ms"] = per_query(
        view.self_time_in_run("engine", "preload") * ms
    )
    out["engine.operator_ms"] = per_query(
        view.self_time_in_run("engine", "op.") * ms
    )
    out["engine.fetch_ms"] = per_query(
        view.self_time_in_run("engine", "fetch") * ms
    )
    preload_ns = sum(r.preload_ns for r in results)
    operator_ns = sum(sum(r.node_times_ns.values()) for r in results)
    fetch_ns = sum(r.fetch_ns for r in results)
    total_ns = sum(s.total_ns for s in stats)
    out["engine.preload_modelled_ms"] = per_query(preload_ns / 1e6)
    out["engine.operator_modelled_ms"] = per_query(operator_ns / 1e6)
    out["engine.fetch_modelled_ms"] = per_query(fetch_ns / 1e6)
    out["engine.modelled_unattributed_ms"] = per_query(
        (total_ns - preload_ns - operator_ns - overhead_ns - fetch_ns) / 1e6
    )
    out["gpu.kernel_launches_per_query"] = per_query(launches)
    out["gpu.fused_launches_per_query"] = per_query(
        sum(s.fused_launches for s in stats)
    )
    out["gpu.pcie_bytes_per_query"] = per_query(
        sum(s.h2d_bytes + s.d2h_bytes for s in stats)
    )
    out["gpu.transfer_share"] = _ratio(
        sum(s.transfer_time_ns for s in stats), total_ns
    )
    out["gpu.peak_hbm_mb"] = (
        max(s.peak_device_bytes for s in stats) / 2**20 if stats else None
    )

    # -- serving layers -------------------------------------------------------
    session = workload.session
    if session is not None:
        session_stats = session.stats()
        cache = session_stats["plan_cache"]
        probes_hit = cache["hits"] - plan_cache_before["hits"]
        probes_miss = cache["misses"] - plan_cache_before["misses"]
        out["engine.residency_evictions"] = session_stats["residency_evictions"]
        out["serve.plancache.hit_ratio"] = _ratio(
            probes_hit, probes_hit + probes_miss
        )
        out["serve.plancache.evictions"] = (
            cache["evictions"] - plan_cache_before["evictions"]
        )
        spans = recorder.spans
        prepares = {
            spans[i][PARENT]
            for layer in ("core.executor", "core.sharded")
            for i in view.indices(layer, "prepare")
        }
        out["serve.plancache.lookup_us"] = _mean(
            recorder.duration(i) * 1e6
            for i in view.indices("serve.plancache", "lookup")
            if i not in prepares
        )
        out["serve.session.run_ms"] = per_call_ms("serve.session", "run")
        if workload.clients == 1:
            out["serve.session.overhead_ms"] = per_query(
                (query_total - view.total("serve.plancache", "lookup")
                 - run_total) * ms
            )
    wall_total = sum(phase.all_samples())
    out["serve.session.host_per_modelled"] = _ratio(
        wall_total * 1e9, sum(modelled_ns(r) for r in results)
    )

    if workload.name == "net_loopback":
        out.update(_net_metrics(workload, phase, entries))
    if workload.name == "sharded_mix":
        out.update(_sharded_metrics(workload, view, results, session))

    out["bench.trace_overhead_share"] = _overhead(untraced, phase)
    out.update(repo_metrics())
    return out


def _overhead(untraced, traced) -> float | None:
    """Traced / untraced wall per statement - 1 over the passes both
    phases completed (the same statements in the same cache states)."""
    ratios = []
    for plain, shimmed in zip(untraced.samples, traced.samples):
        common = min(len(plain), len(shimmed))
        if common:
            ratios.append(sum(shimmed[:common]) / sum(plain[:common]) - 1.0)
    return _mean(ratios)


def _net_metrics(workload, phase, entries) -> dict:
    done = [entry for entry in entries if entry.status == "done"]
    waits = [entry.wall_wait_ms for entry in done]
    out = {
        "serve.concurrent.queue_wait_ms_p50": statistics.median(waits),
        "serve.concurrent.queue_wait_ms_p95": percentile(waits, 95),
        "serve.concurrent.run_ms_p50": statistics.median(
            entry.wall_run_ms for entry in done
        ),
        "serve.concurrent.rejected_share": (
            sum(entry.status == "rejected" for entry in entries) / len(entries)
        ),
    }
    # the modelled clocks of the two streams run on from the warm-up, so
    # the traced phase's makespan is a difference of stream ends
    start = min(entry.start_ns for entry in done)
    out["serve.concurrent.modelled_makespan_ms"] = (
        max(entry.end_ns for entry in done) - start
    ) / 1e6

    # admission wait is only visible on the ticket: one pass per tenant
    # submitted straight to the engine, after the timed phase
    tickets = [
        workload.engine.submit(sql, tenant=spec.name, priority=spec.priority)
        for spec in workload.registry
        for _key, sql in workload.pass_statements(0, 0)
    ]
    for ticket in tickets:
        ticket.wait()
    out["serve.concurrent.admission_wait_ms_p50"] = statistics.median(
        (t.wall_admitted_s - t.wall_dequeue_s) * 1e3
        for t in tickets if t.wall_admitted_s is not None
    )

    # codec cost on the workload's real payloads, timed outside the run
    rtts = [sample * 1e3 for sample in phase.all_samples()]
    encode_s = decode_s = 0.0
    frames = wire_bytes = 0
    statements = dict(workload.pass_statements(0, 0))
    for query_id, (_root, key, result, _s) in enumerate(phase.records, start=1):
        sql = statements[key]
        payloads = [
            (Opcode.EXECUTE, {"query_id": query_id, "sql": sql}),
            (Opcode.RESULT, {
                "query_id": query_id, "columns": result.columns,
                "rows": encode_rows(result.rows),
                "num_rows": result.num_rows, "more": False,
                "stats": result.stats,
            }),
        ]
        for opcode, payload in payloads:
            t0 = perf_counter()
            frame = encode_frame(opcode, payload)
            t1 = perf_counter()
            FrameDecoder().feed(frame)
            t2 = perf_counter()
            encode_s += t1 - t0
            decode_s += t2 - t1
            frames += 1
            wire_bytes += len(frame)
    queries = len(phase.records)
    out["net.protocol.encode_us_per_frame"] = encode_s * 1e6 / frames
    out["net.protocol.decode_us_per_frame"] = decode_s * 1e6 / frames
    out["net.protocol.frames_per_query"] = frames / queries
    out["net.protocol.bytes_per_query"] = wire_bytes / queries
    out["net.protocol.codec_share"] = (encode_s + decode_s) * 1e3 / sum(rtts)
    out["net.server.rtt_ms_p50"] = statistics.median(rtts)
    out["net.server.rtt_ms_p99"] = percentile(rtts, 99)
    # NetResult.stats carries the wall run time; its queue_wait_ms is the
    # *modelled* stream clock, so it is not subtracted here
    out["net.server.overhead_ms_p50"] = statistics.median(
        seconds * 1e3 - result.stats["wall_run_ms"]
        for _root, _key, result, seconds in phase.records
    )
    alpha, beta = (len(samples) for samples in phase.samples)
    out["net.server.tenant_qps_ratio"] = alpha / beta
    return out


def _sharded_metrics(workload, view, results, session) -> dict:
    reports = [r.group_report for r in results]
    exchanges = [step for report in reports for step in report["exchanges"]]
    skews = []
    for report in reports:
        busy = [device["total_ns"] for device in report["devices"]]
        skews.append(max(busy) / (sum(busy) / len(busy)))
    return {
        "core.sharded.prepare_ms": _mean(
            d * 1e3
            for d in view.durations("core.sharded", "prepare", kind="warmup")
        ),
        "core.sharded.run_ms": _mean(
            d * 1e3 for d in view.durations("core.sharded", "run")
        ),
        "core.sharded.interconnect_bytes_per_query": _mean(
            sum((report.get("pair_bytes") or {}).values())
            for report in reports
        ),
        "core.sharded.skew": _mean(skews),
        "core.sharded.broadcast_share": _ratio(
            sum(step["kind"] == "broadcast" for step in exchanges),
            len(exchanges),
        ),
        "core.sharded.makespan_vs_solo": _ratio(
            sum(r.makespan_ns for r in results) / len(results),
            workload.solo_modelled_ns_per_query(),
        ),
    }


def repo_metrics() -> dict:
    """The roadmap's least-code trajectory, counted from ``src/repro``."""
    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    files = sorted(root.rglob("*.py"))
    loc = symbols = 0
    for path in files:
        text = path.read_text()
        loc += text.count("\n")
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                symbols += len(ast.literal_eval(node.value))
    return {
        "repo.src_loc": loc,
        "repo.src_files": len(files),
        "repo.public_symbols": symbols,
    }
