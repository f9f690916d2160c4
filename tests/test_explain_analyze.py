"""EXPLAIN ANALYZE, trace export, and the end-to-end observability
wiring (CLI, bench harness, fuzz artifacts)."""

import json

import pytest

from repro.bench import run_sweep
from repro.baselines import NestGPUSystem, PostgresUnnested
from repro.core import NestGPU
from repro.fuzz.runner import write_case_trace
from repro.obs import MetricsRegistry, Tracer
from repro.obs.analyze import explain_analyze
from repro.tpch import ALL_EVALUATION_QUERIES, queries
from repro import cli

PAPER_TRIO = ("tpch_q2", "tpch_q4", "tpch_q17")


@pytest.fixture(scope="module", params=PAPER_TRIO)
def analyzed(request, tpch_small):
    """One EXPLAIN ANALYZE report per paper query, plus the untraced
    reference result on an identical engine."""
    sql = ALL_EVALUATION_QUERIES[request.param]
    baseline = NestGPU(tpch_small).execute(sql)
    report = explain_analyze(NestGPU(tpch_small), sql)
    return request.param, baseline, report


class TestExplainAnalyze:
    def test_tracer_never_perturbs_the_model(self, analyzed):
        _, baseline, report = analyzed
        assert report.result.total_ms == baseline.total_ms
        assert report.result.stats.kernel_launches == baseline.stats.kernel_launches

    def test_accounting_closes_to_total(self, analyzed):
        _, _, report = analyzed
        acc = report.accounting()
        parts = (
            acc["preload_ns"] + acc["operators_ns"]
            + acc["subquery_setup_ns"] + acc["fetch_ns"]
            + acc["unattributed_ns"]
        )
        assert parts == pytest.approx(acc["total_ns"], abs=1e-6)
        # the instrumented buckets attribute (nearly) everything
        assert abs(acc["unattributed_ns"]) <= 0.05 * acc["total_ns"] + 1.0

    def test_render_shows_per_operator_times(self, analyzed):
        name, _, report = analyzed
        text = report.render()
        assert text.startswith("EXPLAIN ANALYZE — execution path:")
        assert "outer plan:" in text
        assert "actual=" in text
        assert "time accounting:" in text
        if name == "tpch_q2":  # nested path: the subquery loop is shown
            assert "subquery #0 (scalar" in text
            assert "iterations=" in text

    def test_trace_exports_and_validates(self, analyzed, tmp_path):
        name, _, report = analyzed
        path = tmp_path / f"{name}.json"
        report.write_trace(path)
        events = json.loads(path.read_text())["traceEvents"]
        stack = []
        for event in events:
            if event["ph"] == "B":
                stack.append(event)
            elif event["ph"] == "E":
                assert stack
                stack.pop()
        assert not stack
        names = {e["name"] for e in events}
        assert {"query", "execute", "preload"} <= names

    def test_trace_has_one_parse_and_one_bind_span(self, analyzed):
        """One compile pipeline: however many candidate paths auto mode
        compiled, the statement was parsed and bound exactly once."""
        _, _, report = analyzed
        (query,) = report.tracer.roots
        names = [span.name for span in query.find_all("phase")]
        assert names.count("parse") == 1
        assert names.count("bind") == 1
        assert names.count("prepare") == 1
        # plan runs once per candidate path, codegen once per program
        # that runs: the nested one the costing probes, and the unnested
        # one only when it wins (or the governor reruns it)
        prepared, result = report.prepared, report.result
        generated = 1 + (
            prepared.predicted_ms is not None
            and (prepared.choice == "unnested" or result.adaptive_switch)
        )
        assert names.count("plan") >= names.count("codegen") == generated

    def test_explain_analyze_via_engine_api(self, tpch_small):
        text = NestGPU(tpch_small).explain(
            ALL_EVALUATION_QUERIES["tpch_q17"], analyze=True
        )
        assert "EXPLAIN ANALYZE" in text and "actual=" in text

    def test_auto_mode_records_prediction(self, tpch_small):
        metrics = MetricsRegistry()
        report = explain_analyze(
            NestGPU(tpch_small), ALL_EVALUATION_QUERIES["tpch_q2"],
            metrics=metrics,
        )
        assert report.result.predicted_ms is not None
        entry = metrics.to_dict()["queries"][0]
        assert entry["predicted_ms"] == report.result.predicted_ms
        assert "costmodel.abs_error_pct" in metrics.to_dict()["histograms"]


class TestSubquerySpans:
    def test_loop_spans_match_result_counters(self, tpch_small):
        # force the scalar loop (no vectorization) to get iteration spans
        from repro.engine import EngineOptions

        options = EngineOptions(use_vectorization=False)
        tracer = Tracer()
        db = NestGPU(tpch_small, options=options, tracer=tracer)
        result = db.execute(queries.TPCH_Q2, mode="nested")
        tracer.finish()
        iterations = [
            s for root in tracer.roots for s in root.find_all("iteration")
        ]
        assert len(iterations) == sum(result.subquery_iterations.values())
        assert all(s.end_ns is not None for s in iterations)
        hits = sum(1 for s in iterations if (s.attrs or {}).get("cache_hit"))
        assert hits == result.cache_hits

    def test_batch_spans_record_cache_traffic(self, tpch_small):
        tracer = Tracer()
        db = NestGPU(tpch_small, tracer=tracer)
        result = db.execute(queries.TPCH_Q2, mode="nested")
        tracer.finish()
        batches = [
            s for root in tracer.roots for s in root.find_all("batch")
        ]
        assert len(batches) == sum(result.subquery_batches.values())
        probed = sum(
            (s.attrs or {}).get("cache_hits", 0)
            + (s.attrs or {}).get("cache_misses", 0)
            for s in batches
        )
        assert probed == result.cache_hits + result.cache_misses


class TestCliObservability:
    def test_analyze_trace_metrics_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        status = cli.main([
            "--scale", "0.25", "--paper-query", "tpch_q4", "--analyze",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert status == 0
        out = capsys.readouterr()
        assert "EXPLAIN ANALYZE" in out.out
        assert "queries.total" in out.err
        assert json.loads(trace.read_text())["traceEvents"]
        assert json.loads(metrics.read_text())["queries"]

    def test_repl_analyze_meta_command(self, tmp_path):
        import io

        db = cli.make_engine(
            cli.build_parser().parse_args(["--scale", "0.1"])
        )
        stdout = io.StringIO()
        cli.repl(
            db,
            stdin=io.StringIO(
                "\\analyze SELECT r_name FROM region WHERE r_regionkey = "
                "(SELECT min(r_regionkey) FROM region);\n\\q\n"
            ),
            stdout=stdout,
        )
        assert "EXPLAIN ANALYZE" in stdout.getvalue()

    def test_paper_query_and_q_are_exclusive(self, capsys):
        assert cli.main([
            "-q", "SELECT 1", "--paper-query", "tpch_q4",
        ]) == 2


class TestBenchObservability:
    def test_run_sweep_emits_traces_and_tag_extras(self, tmp_path):
        metrics = MetricsRegistry()
        sweep = run_sweep(
            "obs-smoke",
            queries.PAPER_Q5,
            [("NestGPU", NestGPUSystem), ("pgSQL(unnested)", PostgresUnnested)],
            scale_factors=(0.25,),
            tables=("part", "partsupp", "supplier", "nation", "region"),
            trace_dir=str(tmp_path),
            metrics=metrics,
        )
        cell = sweep.cell("NestGPU", 0.25)
        assert cell.extra["kernel_time_by_tag_ms"]
        assert cell.extra["launches_by_tag"]
        traces = sorted(p.name for p in tmp_path.iterdir())
        # one file per cell, including the system that refused to run
        assert traces == [
            "obs-smoke__NestGPU__sf0.25.json",
            "obs-smoke__pgSQL-unnested__sf0.25.json",
        ]
        data = json.loads((tmp_path / traces[0]).read_text())
        assert data["traceEvents"]
        assert metrics.to_dict()["counters"]["queries.total"] == 1


class TestFuzzTrace:
    def test_write_case_trace_on_erroring_sql(self, tpch_small, tmp_path):
        path = tmp_path / "trace.json"
        # division by zero dies mid-execution; the partial trace persists
        write_case_trace(
            tpch_small,
            "SELECT r_regionkey / 0 FROM region",
            path,
        )
        assert json.loads(path.read_text())["traceEvents"]
