"""Tests for the Volcano iterator engine (paper Figure 2).

The rowstore shares no execution code with the columnar engines, so
agreement between the two is a strong independent correctness check
for the nested method.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rowstore import RowstoreEngine
from repro.core import NestGPU
from repro.storage import Catalog, Table, int_type
from repro.tpch import queries

INT = int_type(4)


def _catalog(seed=7, n_r=20, n_s=40):
    rng = np.random.default_rng(seed)
    r = Table.from_pydict(
        "r", [("r_col1", INT), ("r_col2", INT)],
        {
            "r_col1": rng.integers(0, 8, n_r),
            "r_col2": rng.integers(0, 15, n_r),
        },
    )
    s = Table.from_pydict(
        "s", [("s_col1", INT), ("s_col2", INT), ("s_col3", INT)],
        {
            "s_col1": rng.integers(0, 8, n_s),
            "s_col2": rng.integers(0, 15, n_s),
            "s_col3": rng.integers(0, 5, n_s),
        },
    )
    return Catalog([r, s])


def canon(rows):
    return sorted(tuple(float(v) for v in row) for row in rows)


class TestBasics:
    def test_scan_filter(self):
        catalog = _catalog()
        engine = RowstoreEngine(catalog)
        result = engine.execute("SELECT r_col1 FROM r WHERE r_col2 > 7")
        r = catalog.table("r")
        expected = int((r.column("r_col2").data > 7).sum())
        assert result.num_rows == expected

    def test_join_as_filtered_cross(self):
        catalog = _catalog()
        result = RowstoreEngine(catalog).execute(
            "SELECT r_col1, s_col2 FROM r, s WHERE r_col1 = s_col1"
        )
        gpu = NestGPU(catalog).execute(
            "SELECT r_col1, s_col2 FROM r, s WHERE r_col1 = s_col1"
        )
        assert canon(result.rows) == canon(gpu.rows)

    def test_aggregate(self):
        catalog = _catalog()
        result = RowstoreEngine(catalog).execute(
            "SELECT s_col1, count(*) AS n FROM s GROUP BY s_col1"
        )
        gpu = NestGPU(catalog).execute(
            "SELECT s_col1, count(*) AS n FROM s GROUP BY s_col1"
        )
        assert canon(result.rows) == canon(gpu.rows)

    def test_order_limit_distinct(self):
        catalog = _catalog()
        sql = "SELECT DISTINCT r_col1 FROM r ORDER BY r_col1 DESC LIMIT 3"
        result = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql)
        assert canon(result.rows) == canon(gpu.rows)

    def test_stats_counted(self):
        catalog = _catalog()
        result = RowstoreEngine(catalog).execute("SELECT r_col1 FROM r")
        assert result.stats.get_next_calls > 0
        assert result.total_ms > 0


class TestFigure2NestedMethod:
    def test_query1_matches_nestgpu(self):
        catalog = _catalog()
        rowstore = RowstoreEngine(catalog).execute(queries.PAPER_Q1)
        gpu = NestGPU(catalog).execute(queries.PAPER_Q1, mode="nested")
        assert canon(rowstore.rows) == canon(gpu.rows)

    def test_subquery_reevaluated_per_tuple(self):
        """Figure 2's defining property: one subquery evaluation per
        outer tuple reaching the predicate."""
        catalog = _catalog()
        result = RowstoreEngine(catalog).execute(queries.PAPER_Q1)
        assert result.stats.subquery_evaluations == catalog.table("r").num_rows

    def test_exists(self):
        catalog = _catalog()
        sql = (
            "SELECT r_col1 FROM r WHERE EXISTS "
            "(SELECT * FROM s WHERE s_col1 = r_col1 AND s_col2 > 10)"
        )
        rowstore = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql, mode="nested")
        assert canon(rowstore.rows) == canon(gpu.rows)

    def test_in_subquery(self):
        catalog = _catalog()
        sql = (
            "SELECT r_col1 FROM r WHERE r_col2 IN "
            "(SELECT s_col2 FROM s WHERE s_col1 = r_col1)"
        )
        rowstore = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql, mode="nested")
        assert canon(rowstore.rows) == canon(gpu.rows)

    def test_non_unnestable_correlation(self):
        catalog = _catalog()
        sql = (
            "SELECT r_col1, r_col2 FROM r WHERE r_col2 > "
            "(SELECT min(s_col2) FROM s WHERE s_col1 != r_col1)"
        )
        rowstore = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql, mode="nested")
        assert canon(rowstore.rows) == canon(gpu.rows)

    @pytest.mark.parametrize("agg", ["count(1)", "sum(1)"])
    def test_constant_aggregate_argument(self, agg):
        """A constant aggregate argument evaluates to a bare scalar that
        the batched path broadcasts over the segmented rows."""
        catalog = _catalog()
        sql = (
            f"SELECT r_col1 FROM r WHERE r_col2 < "
            f"(SELECT {agg} FROM s WHERE s_col1 = r_col1)"
        )
        rowstore = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql, mode="nested")
        assert rowstore.num_rows > 0
        assert canon(rowstore.rows) == canon(gpu.rows)

    @pytest.mark.parametrize("mode", ["nested", "unnested"])
    def test_scalar_subquery_in_subquery_select_list(self, mode):
        """An uncorrelated scalar subquery in the SELECT list of an
        uncorrelated WHERE subquery runs through the flat evaluator."""
        catalog = _catalog()
        sql = (
            "SELECT r_col1 FROM r WHERE r_col2 > "
            "(SELECT (SELECT avg(s_col2) FROM s) FROM r WHERE r_col1 = 3 "
            "AND r_col2 = (SELECT max(r_col2) FROM r WHERE r_col1 = 3))"
        )
        rowstore = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql, mode=mode)
        assert rowstore.num_rows > 0
        assert canon(rowstore.rows) == canon(gpu.rows)

    @given(
        seed=st.integers(0, 5000),
        agg=st.sampled_from(["min", "max", "sum", "avg", "count"]),
        outer_op=st.sampled_from(["=", "<", ">", "!="]),
        corr_op=st.sampled_from(["=", "<", ">"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_rowstore_equals_nestgpu(self, seed, agg, outer_op, corr_op):
        """Two unrelated engines (tuple-at-a-time Python vs generated
        columnar drive programs) must agree on random correlated
        queries."""
        catalog = _catalog(seed=seed, n_r=12, n_s=25)
        sql = (
            f"SELECT r_col1, r_col2 FROM r WHERE r_col2 {outer_op} ("
            f"SELECT {agg}(s_col2) FROM s WHERE s_col1 {corr_op} r_col1)"
        )
        rowstore = RowstoreEngine(catalog).execute(sql)
        gpu = NestGPU(catalog).execute(sql, mode="nested")
        assert canon(rowstore.rows) == canon(gpu.rows)
