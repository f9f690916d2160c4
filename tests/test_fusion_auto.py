"""``fusion="auto"`` through the engine: decided at plan time.

A program whose fusion sites are all *launch-only* (same kernels, same
widths, one scope) is fused analytically — ``prepare`` runs nothing to
find that out.  Only a program with a *widening* site (an in-loop scan
with two or more correlated predicates) is still measured by the
:class:`FusionTuner`, because only there does the winner depend on the
data.  The brute-force tuner is kept here as the reference the static
rule is compared against.
"""

from __future__ import annotations

import dataclasses

import pytest
from conftest import make_rst_catalog

from repro.core import FusionDecision, FusionTuner, NestGPU, plan_fingerprint
from repro.engine import EngineOptions
from repro.errors import UnnestingError
from repro.fuzz.generator import generate_query
from repro.gpu import Device, DeviceSpec
from repro.obs.metrics import MetricsRegistry
from repro.serve import EngineSession, PlanCache
from repro.tpch import ALL_EVALUATION_QUERIES, TPCH_Q2, generate_tpch

AUTO = EngineOptions(fusion="auto")
# exact selectivities are counted on a scratch device while the plan is
# built (plan.selectivity); without them a forced-mode prepare is silent
AUTO_SILENT = EngineOptions(fusion="auto", exact_selectivity=False)
PAPER = sorted(ALL_EVALUATION_QUERIES)

LAUNCH_ONLY = (
    "SELECT r_col1, r_col2 FROM r WHERE r_col2 = "
    "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1)"
)
# two correlated predicates in one inner scan, the second a
# non-equality: not vectorizable, so the loop's rt.t_f_scan really runs
WIDENING = (
    "SELECT r_col1, r_col2 FROM r WHERE r_col2 > "
    "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1 "
    "AND s_col3 < r.r_col2)"
)


@pytest.fixture(scope="module")
def rst():
    return make_rst_catalog()


@pytest.fixture(scope="module")
def tpch005():
    return generate_tpch(0.05)


@pytest.fixture
def executions(monkeypatch):
    """Counts of everything ``prepare`` could run or generate."""
    from repro.core import executor

    counts = {"execute": 0, "measure": 0, "launch": 0, "generate": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(NestGPU, "_execute_program", "execute")
    counted(NestGPU, "_measure_program", "measure")
    counted(Device, "launch", "launch")
    counted(executor, "generate_drive_program", "generate")
    return counts


class TestPrepareLaunchesNothingForFusion:
    @pytest.mark.parametrize("mode", ["nested", "unnested"])
    @pytest.mark.parametrize("query", PAPER)
    def test_forced_modes_run_nothing(self, tpch_small, executions, query, mode):
        engine = NestGPU(tpch_small, mode=mode, options=AUTO_SILENT)
        try:
            prepared = engine.prepare(ALL_EVALUATION_QUERIES[query])
        except UnnestingError:
            pytest.skip("outside Kim's rewrite")
        assert prepared.fusion_decision.source == "analytic"
        assert executions == {
            "execute": 0, "measure": 0, "launch": 0, "generate": 1,
        }
        assert engine.fusion_tuner.stats()["probes"] == 0

    def test_flat_statement_runs_nothing(self, tpch_small, executions):
        engine = NestGPU(tpch_small, options=AUTO_SILENT)
        prepared = engine.prepare(
            "SELECT l_orderkey FROM lineitem WHERE l_quantity < 5 "
            "AND l_discount > 0.05"
        )
        assert prepared.choice == "flat"
        assert prepared.fusion_decision.source == "analytic"
        assert executions == {
            "execute": 0, "measure": 0, "launch": 0, "generate": 1,
        }

    @pytest.mark.parametrize("query", PAPER)
    def test_auto_mode_runs_only_the_cost_models_own_probe(
        self, tpch_small, executions, query
    ):
        """``predict_nested`` may probe islands (launches, no program)
        or fall back to one full run for stacked/quantified subqueries;
        the fusion decision adds nothing to either."""
        engine = NestGPU(tpch_small, mode="auto", options=AUTO)
        prepared = engine.prepare(ALL_EVALUATION_QUERIES[query])
        assert executions["measure"] == 0
        assert executions["execute"] <= 1
        # one codegen pass per compiled candidate
        candidates = 1 + (prepared.predicted_ms is not None)
        assert executions["generate"] == candidates
        assert engine.fusion_tuner.stats()["probes"] == 0

    def test_tuner_untouched_by_the_paper_queries_in_every_mode(
        self, tpch_small
    ):
        engine = NestGPU(tpch_small, options=AUTO)
        for sql in ALL_EVALUATION_QUERIES.values():
            for mode in ("nested", "unnested", "auto"):
                try:
                    engine.prepare(sql, mode)
                except UnnestingError:
                    pass
        assert engine.fusion_tuner.stats() == {
            "entries": 0, "probes": 0, "hits": 0, "misses": 0,
        }


def brute_force(catalog, sql, mode):
    """The reference decision procedure: run the unfused and the fused
    program in full and let :meth:`FusionTuner.decide` compare."""
    off = NestGPU(catalog, options=EngineOptions(fusion="off"), mode=mode)
    on = NestGPU(catalog, options=EngineOptions(fusion="on"), mode=mode)
    unfused, fused = off.prepare(sql), on.prepare(sql)
    if fused.fusion_decision.source == "off":
        return None  # no fusible site
    return FusionTuner().decide(
        "brute-force", 0, fused.fusion_decision.sites,
        lambda: off._measure_program(unfused.program),
        lambda: on._measure_program(fused.program),
    )


def assert_same_decision(catalog, sql, mode):
    engine = NestGPU(catalog, mode=mode, options=AUTO)
    try:
        prepared = engine.prepare(sql)
    except UnnestingError:
        return None
    decision = prepared.fusion_decision
    reference = brute_force(catalog, sql, mode)
    if reference is None:
        assert decision.source == "off"
        return decision
    assert decision.sites == reference.sites
    if decision.source == "tuned":
        assert (decision.fused, decision.fused_ns, decision.unfused_ns) == (
            reference.fused, reference.fused_ns, reference.unfused_ns
        )
    elif decision.fused != reference.fused:
        # the rule may only differ from the measurement on an exact tie
        # (the fused site never ran): either program costs the same
        assert decision.source == "analytic"
        assert reference.fused_ns == reference.unfused_ns
    return decision


class TestDecisionEquivalence:
    @pytest.mark.parametrize("mode", ["nested", "unnested"])
    @pytest.mark.parametrize("query", PAPER)
    def test_paper_queries(self, tpch005, query, mode):
        decision = assert_same_decision(
            tpch005, ALL_EVALUATION_QUERIES[query], mode
        )
        assert decision is None or decision.source == "analytic"

    def test_seed7_fuzz_corpus(self, tpch005):
        sources = {"off": 0, "analytic": 0, "tuned": 0}
        widening = set()
        for index in range(150):
            sql = generate_query(tpch005, 7, index).sql
            for mode in ("nested", "unnested"):
                decision = assert_same_decision(tpch005, sql, mode)
                if decision is not None:
                    sources[decision.source] += 1
                    if decision.source == "tuned":
                        widening.add((index, mode))
        assert sources["analytic"] >= 200
        # the corpus exercises the measured branch too
        assert widening == {
            (12, "nested"), (15, "nested"), (31, "nested"),
            (54, "nested"), (102, "nested"), (110, "nested"),
        }


class TestWideningSiteIsStillMeasured:
    def test_classified_widening_and_tuned_with_the_parents_numbers(self, rst):
        engine = NestGPU(rst, mode="nested", options=AUTO)
        prepared = engine.prepare(WIDENING)
        sites = prepared.program.fusion.sites
        assert [(s.kind, s.transient, s.widening) for s in sites] == [
            ("scan", True, True), ("subquery_predicate", False, False),
        ]
        decision = prepared.fusion_decision
        assert decision.source == "tuned" and decision.fused
        # measured at the parent commit (fused wins: 120-row inputs)
        assert decision.fused_ns == pytest.approx(626397.3763903674, rel=1e-12)
        assert decision.unfused_ns == pytest.approx(
            1006397.3763903676, rel=1e-12
        )
        assert engine.fusion_tuner.stats() == {
            "entries": 1, "probes": 1, "hits": 0, "misses": 1,
        }
        assert engine.prepare(WIDENING).fusion_decision is decision  # a hit

    def test_launch_only_twin_is_not_measured(self, rst, executions):
        prepared = NestGPU(rst, mode="nested", options=AUTO).prepare(
            LAUNCH_ONLY
        )
        assert not any(s.widening for s in prepared.program.fusion.sites)
        assert prepared.fusion_decision == FusionDecision(
            source="analytic", fused=True, sites=2
        )
        assert executions["execute"] == executions["launch"] == 0

    def test_the_measurement_can_go_either_way(self, rst):
        """On a device with one thread the full-width masks of the
        fused transient scan cost more than the launches they save
        (Eq. 1: 2*120*K > 5*C): the tuner keeps the unfused program."""
        narrow = dataclasses.replace(DeviceSpec.v100(), threads=1)
        options = EngineOptions(fusion="auto", use_index=False)
        engine = NestGPU(rst, narrow, options, mode="nested")
        prepared = engine.prepare(WIDENING)
        decision = prepared.fusion_decision
        assert decision.source == "tuned" and not decision.fused
        assert decision.unfused_ns < decision.fused_ns
        assert prepared.program.fusion is None
        assert "rt.t_f_scan" not in prepared.program.source
        assert engine.run_prepared(prepared).stats.fused_launches == 0

    def test_free_launches_leave_nothing_to_decide_analytically(self, rst):
        """With C = 0 a launch-only site saves nothing — a tie up to
        float summation order — so the rule does not claim it."""
        free = dataclasses.replace(DeviceSpec.v100(), launch_overhead_ns=0.0)
        decision = NestGPU(rst, free, AUTO, mode="nested").prepare(
            LAUNCH_ONLY
        ).fusion_decision
        assert decision.source == "tuned"
        assert decision.fused_ns == pytest.approx(decision.unfused_ns, rel=1e-12)


class TestFingerprintCoversSubqueryBodies:
    """TPC-H Q2 and its twin with only the *inner* region changed share
    an outer tree; the parent's fingerprint made them one tuner entry."""

    @pytest.fixture(scope="class")
    def pair(self, tpch005):
        head, _, tail = TPCH_Q2.rpartition("'EUROPE'")
        engine = NestGPU(tpch005, mode="nested")
        return [engine.prepare(sql).plan for sql in (TPCH_Q2, f"{head}'ASIA'{tail}")]

    def test_inner_literal_changes_the_fingerprint(self, pair):
        europe, asia = pair
        assert plan_fingerprint(europe) != plan_fingerprint(asia)
        assert plan_fingerprint(europe) == plan_fingerprint(europe)

    def test_two_statements_two_entries_two_misses(self, pair):
        tuner = FusionTuner()
        served = [
            tuner.decide(plan_fingerprint(plan), 0, 5,
                         lambda: 2.0 + k, lambda: 1.0 + k)
            for k, plan in enumerate(pair)
        ]
        assert tuner.stats() == {
            "entries": 2, "probes": 2, "hits": 0, "misses": 2,
        }
        assert [d.fused_ns for d in served] == [1.0, 2.0]  # each its own

    def test_widening_twins_are_measured_separately(self, rst):
        engine = NestGPU(rst, mode="nested", options=AUTO)
        first = engine.prepare(WIDENING).fusion_decision
        second = engine.prepare(
            WIDENING.replace("s_col3 <", "s_col3 >")
        ).fusion_decision
        assert engine.fusion_tuner.stats()["misses"] == 2
        assert (first.fused_ns, first.unfused_ns) != (
            second.fused_ns, second.unfused_ns
        )


class TestAnalyticDecisionIsLegible:
    def test_describe_and_to_dict(self):
        decision = FusionDecision(source="analytic", fused=True, sites=3)
        text = decision.describe()
        assert text.startswith("analytic: fused (3 launch-only sites")
        assert " ms" not in text  # nothing was measured
        assert decision.to_dict() == {
            "source": "analytic", "fused": True, "sites": 3,
            "fused_ns": None, "unfused_ns": None,
            "coefficients_version": None,
        }

    def test_explain_prints_the_rule_and_the_sites(self, rst):
        text = NestGPU(rst, mode="nested", options=AUTO).explain(LAUNCH_ONLY)
        assert "fusion: analytic: fused (2 launch-only sites" in text
        assert "fused [5] scan (loop): s AS s: 1 predicate(s)" in text
        assert "widening" not in text

    def test_explain_marks_the_widening_site(self, rst):
        text = NestGPU(rst, mode="nested", options=AUTO).explain(WIDENING)
        assert "fusion: tuned: fused wins (2 sites, fused 0.626 ms" in text
        assert "scan (loop, widening): s AS s: 2 predicate(s)" in text

    def test_explain_analyze_reports_the_real_runs_saving(self, rst):
        engine = NestGPU(rst, mode="nested", options=AUTO)
        text = engine.explain(LAUNCH_ONLY, analyze=True)
        stats = engine.execute(LAUNCH_ONLY).stats
        saved = stats.fused_kernels - stats.fused_launches
        assert saved > 0
        line = next(
            ln for ln in text.splitlines() if ln.startswith("fusion:")
        )
        assert "analytic: fused" in line
        assert (
            f"fused launches: {stats.fused_launches} (absorbed "
            f"{stats.fused_kernels} kernels, saved {saved} launches)"
        ) in line

    def test_decision_counters(self, rst):
        metrics = MetricsRegistry()
        engine = NestGPU(rst, mode="nested", options=AUTO, metrics=metrics)
        engine.execute(LAUNCH_ONLY)
        engine.execute(LAUNCH_ONLY)
        assert metrics.counter("codegen.fusion.decision.analytic").value == 2
        assert metrics.counter("codegen.fusion.queries_fused").value == 2
        assert metrics.dump_prefix("codegen.fusion.tuner")["gauges"] == {}
        engine.execute(WIDENING)
        assert metrics.counter("codegen.fusion.decision.tuned").value == 1
        assert metrics.gauge("codegen.fusion.tuner.misses").value == 1


class TestRecalibrationKeepsAnalyticPlans:
    def test_analytic_plan_survives_tuned_plan_is_evicted(self):
        catalog = make_rst_catalog(n_r=200, n_s=400, n_t=300)
        with EngineSession(catalog, mode="nested", options=AUTO) as session:
            session.execute(LAUNCH_ONLY)
            session.execute(WIDENING)
            analytic_key = PlanCache.key(LAUNCH_ONLY, "nested")
            tuned_key = PlanCache.key(WIDENING, "nested")
            assert analytic_key in session.plan_cache
            assert tuned_key in session.plan_cache
            recal = session.recalibrate(min_samples=8)
            assert recal is not None
            assert recal["fusion_plans_evicted"] == 1
            assert analytic_key in session.plan_cache
            assert tuned_key not in session.plan_cache
            assert session.execute(LAUNCH_ONLY).plan_cache_hit
            again = session.execute(WIDENING)
            assert not again.plan_cache_hit
            # re-tuned under the new coefficient version, not served stale
            _, hit = session.lookup_or_prepare(WIDENING)
            assert hit
            assert session.engine.fusion_tuner.stats()["entries"] == 1
