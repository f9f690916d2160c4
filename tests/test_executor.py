"""End-to-end integration tests for NestGPU on the paper's queries."""

import numpy as np
import pytest

from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.errors import PlanError, UnnestingError
from repro.tpch import queries

from conftest import rows_set


@pytest.fixture(scope="module")
def db(tpch_small):
    return NestGPU(tpch_small)


UNNESTABLE = [
    "tpch_q2", "tpch_q4", "tpch_q17",
    "paper_q4v", "paper_q6", "paper_q7", "paper_q8",
]


class TestNestedVsUnnested:
    @pytest.mark.parametrize("name", UNNESTABLE)
    def test_results_agree(self, db, name):
        sql = queries.ALL_EVALUATION_QUERIES[name]
        nested = db.execute(sql, mode="nested")
        unnested = db.execute(sql, mode="unnested")
        assert rows_set(nested) == rows_set(unnested)

    def test_query5_only_nested(self, db):
        with pytest.raises(UnnestingError):
            db.execute(queries.PAPER_Q5, mode="unnested")
        result = db.execute(queries.PAPER_Q5, mode="nested")
        assert result.plan_choice == "nested"

    def test_auto_mode_on_q5_falls_back_to_nested(self, db):
        result = db.execute(queries.PAPER_Q5)
        assert result.plan_choice == "nested"

    def test_auto_refusal_is_counted_and_shown(self, tpch_small):
        from repro.obs import MetricsRegistry, Tracer

        metrics, tracer = MetricsRegistry(), Tracer()
        db = NestGPU(tpch_small, metrics=metrics, tracer=tracer)
        db.prepare(queries.PAPER_Q5)  # the unnester refuses
        db.prepare(queries.TPCH_Q17)  # both candidates compile
        counters = metrics.to_dict()["counters"]
        assert counters["plan.unnest.attempted"] == 2
        assert counters["plan.unnest.refused"] == 1
        refused, costed = (root.attrs for root in tracer.roots)
        assert refused["mode"] == "auto" and "unnest_refused" in refused
        assert "unnest_refused" not in costed

    @pytest.mark.parametrize("mode", ["nestd", "AUTO", "flat"])
    def test_unknown_mode_is_a_plan_error(self, tpch_small, db, mode):
        # per call (it used to run auto silently) and at construction
        with pytest.raises(PlanError, match="unknown mode"):
            db.prepare(queries.TPCH_Q17, mode=mode)
        with pytest.raises(PlanError, match="unknown mode"):
            db.execute("SELECT n_name FROM nation", mode=mode)
        with pytest.raises(PlanError, match="unknown mode"):
            NestGPU(tpch_small, mode=mode)

    def test_q2_has_results(self, db):
        result = db.execute(queries.TPCH_Q2, mode="nested")
        assert result.num_rows > 0
        assert result.column_names[:2] == ["s_acctbal", "s_name"]

    def test_q2_order_respected(self, db):
        result = db.execute(queries.TPCH_Q2, mode="nested")
        balances = [row[0] for row in result.rows]
        assert balances == sorted(balances, reverse=True)

    def test_q4_groups(self, db):
        result = db.execute(queries.TPCH_Q4, mode="nested")
        priorities = [row[0] for row in result.rows]
        assert priorities == sorted(priorities)
        assert all(count > 0 for _, count in result.rows)

    def test_q17_scalar(self, db):
        result = db.execute(queries.TPCH_Q17, mode="nested")
        assert result.num_rows == 1
        assert result.rows[0][0] > 0


class TestOracle:
    def test_q17_matches_brute_force(self, tpch_small, db):
        part = tpch_small.table("part")
        lineitem = tpch_small.table("lineitem")
        brand = part.column("p_brand")
        container = part.column("p_container")
        keep = (
            brand.data == brand.dictionary.code_of("Brand#23")
        ) & (container.data == container.dictionary.code_of("MED BOX"))
        part_keys = part.column("p_partkey").data[keep]
        l_partkey = lineitem.column("l_partkey").data
        l_quantity = lineitem.column("l_quantity").data
        l_price = lineitem.column("l_extendedprice").data
        total = 0.0
        for key in part_keys:
            mask = l_partkey == key
            if not mask.any():
                continue
            threshold = 0.2 * l_quantity[mask].mean()
            total += l_price[mask & (l_quantity < threshold)].sum()
        expected = total / 7.0
        result = db.execute(queries.TPCH_Q17, mode="nested")
        assert result.rows[0][0] == pytest.approx(expected)

    def test_q4_matches_brute_force(self, tpch_small, db):
        from repro.storage import date_to_int

        orders = tpch_small.table("orders")
        lineitem = tpch_small.table("lineitem")
        odate = orders.column("o_orderdate").data
        in_window = (odate >= date_to_int("1993-07-01")) & (
            odate < date_to_int("1993-10-01")
        )
        ok_lines = set(
            lineitem.column("l_orderkey").data[
                lineitem.column("l_commitdate").data
                < lineitem.column("l_receiptdate").data
            ].tolist()
        )
        okeys = orders.column("o_orderkey").data
        priorities = orders.column("o_orderpriority").to_python()
        from collections import Counter

        counter = Counter(
            priorities[i]
            for i in range(orders.num_rows)
            if in_window[i] and okeys[i] in ok_lines
        )
        result = db.execute(queries.TPCH_Q4, mode="nested")
        assert {p: c for p, c in result.rows} == dict(counter)


class TestOptimizationTogglesPreserveResults:
    @pytest.mark.parametrize("toggle", [
        "use_memory_pools", "use_index", "use_cache",
        "use_vectorization", "use_invariant_extraction",
    ])
    def test_toggle_off_same_results(self, tpch_small, db, toggle):
        options = EngineOptions(**{toggle: False})
        alt = NestGPU(tpch_small, options=options)
        for name in ("tpch_q2", "tpch_q17"):
            sql = queries.ALL_EVALUATION_QUERIES[name]
            assert rows_set(alt.execute(sql, mode="nested")) == rows_set(
                db.execute(sql, mode="nested")
            )

    def test_all_off_same_results(self, tpch_small, db):
        bare = NestGPU(tpch_small, options=EngineOptions.all_off())
        sql = queries.TPCH_Q2
        assert rows_set(bare.execute(sql, mode="nested")) == rows_set(
            db.execute(sql, mode="nested")
        )

    def test_all_off_is_slower(self, tpch_small, db):
        bare = NestGPU(tpch_small, options=EngineOptions.all_off())
        fast = db.execute(queries.TPCH_Q2, mode="nested")
        slow = bare.execute(queries.TPCH_Q2, mode="nested")
        assert slow.total_ms > fast.total_ms * 2


class TestDriveProgram:
    def test_source_shows_loop(self, db):
        source = db.drive_source(queries.TPCH_Q2, mode="nested")
        assert "for " in source and "rt.t_scan" in source
        assert "rt.apply_subquery_predicate" in source
        assert "rt.restore_pools" in source

    def test_source_shows_vectorized_branch(self, db):
        source = db.drive_source(queries.TPCH_Q2, mode="nested")
        assert "rt.run_vector_batch" in source

    def test_flat_query_has_no_loop(self, db):
        source = db.drive_source(
            "SELECT p_partkey FROM part WHERE p_size = 15"
        )
        assert "for " not in source

    def test_unnested_q2_has_no_loop(self, db):
        source = db.drive_source(queries.TPCH_Q2, mode="unnested")
        assert "rt.t_scan" not in source

    def test_exists_semijoin_fast_path(self, db):
        source = db.drive_source(queries.TPCH_Q4, mode="nested")
        assert "rt.semi_join" in source
        assert "rt.t_scan" not in source  # no loop for Q4

    def test_result_carries_source(self, db):
        result = db.execute(queries.TPCH_Q17, mode="nested")
        assert "SUBQ #0" in result.drive_source


class TestStats:
    def test_stats_populated(self, db):
        result = db.execute(queries.TPCH_Q2, mode="nested")
        assert result.stats.kernel_launches > 0
        assert result.stats.h2d_bytes > 0
        assert result.total_ms > 0

    def test_transfer_fraction_reasonable(self, db):
        # the paper reports <= ~20% of Q2 time in CPU-GPU transfers
        result = db.execute(queries.TPCH_Q2, mode="nested")
        assert 0.0 < result.stats.transfer_fraction < 0.95

    def test_cache_counters(self, tpch_small):
        options = EngineOptions(use_vectorization=False)
        db = NestGPU(tpch_small, options=options)
        result = db.execute(queries.TPCH_Q17, mode="nested")
        # l_partkey repeats across lineitem rows of the same part
        assert result.cache_hits > 0


class TestUncorrelatedSubqueries:
    def test_scalar_type_a(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(
            "SELECT r_col1 FROM r WHERE r_col2 > (SELECT min(s_col2) FROM s)",
            mode="nested",
        )
        s_min = min(
            rst_catalog.table("s").column("s_col2").data
        )
        expected = [
            (int(a),)
            for a, b in zip(
                rst_catalog.table("r").column("r_col1").data,
                rst_catalog.table("r").column("r_col2").data,
            )
            if b > s_min
        ]
        assert sorted(result.rows) == sorted(expected)

    def test_uncorrelated_exists(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(
            "SELECT r_col1 FROM r WHERE EXISTS "
            "(SELECT * FROM s WHERE s_col2 > 9999)",
            mode="nested",
        )
        assert result.num_rows == 0

    def test_uncorrelated_in(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(
            "SELECT r_col1 FROM r WHERE r_col1 IN (SELECT s_col1 FROM s)",
            mode="nested",
        )
        s_keys = set(rst_catalog.table("s").column("s_col1").data.tolist())
        r_keys = rst_catalog.table("r").column("r_col1").data
        assert result.num_rows == int(np.isin(r_keys, list(s_keys)).sum())


class TestCorrelatedIn:
    def test_correlated_in_nested_only(self, rst_catalog):
        db = NestGPU(rst_catalog)
        sql = (
            "SELECT r_col1, r_col2 FROM r WHERE r_col2 IN "
            "(SELECT s_col2 FROM s WHERE s_col1 = r_col1)"
        )
        result = db.execute(sql, mode="nested")
        # oracle
        r = rst_catalog.table("r")
        s = rst_catalog.table("s")
        expected = []
        for a, b in zip(r.column("r_col1").data, r.column("r_col2").data):
            values = s.column("s_col2").data[s.column("s_col1").data == a]
            if b in values:
                expected.append((int(a), int(b)))
        assert sorted(result.rows) == sorted(expected)

    def test_not_in(self, rst_catalog):
        db = NestGPU(rst_catalog)
        sql_in = (
            "SELECT r_col1, r_col2 FROM r WHERE r_col2 IN "
            "(SELECT s_col2 FROM s WHERE s_col1 = r_col1)"
        )
        sql_not_in = (
            "SELECT r_col1, r_col2 FROM r WHERE r_col2 NOT IN "
            "(SELECT s_col2 FROM s WHERE s_col1 = r_col1)"
        )
        n_in = db.execute(sql_in, mode="nested").num_rows
        n_not = db.execute(sql_not_in, mode="nested").num_rows
        assert n_in + n_not == rst_catalog.table("r").num_rows
