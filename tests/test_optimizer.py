"""Tests for plan-level rewrites: semi-join fast path, magic sets."""

import pytest

from repro.errors import UnnestingError
from repro.plan import Binder, PlanBuilder, try_exists_semijoin
from repro.plan.nodes import SemiJoin, SubqueryFilter
from repro.plan.unnest import _equality_correlations
from repro.sql import parse
from repro.tpch import queries


def build(catalog, sql):
    block = Binder(catalog).bind(parse(sql))
    return PlanBuilder(catalog).build(block)


class TestExistsSemijoin:
    def test_q4_rewrites(self, tpch_small):
        rewritten = build(tpch_small, queries.TPCH_Q4)
        assert [n for n in rewritten.walk() if isinstance(n, SemiJoin)]
        assert not [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_aggregate_exists_not_rewritten(self, rst_catalog):
        rewritten = build(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT min(s_col2) FROM s WHERE s_col1 = r_col1)
            """,
        )
        assert [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_multi_table_exists_not_rewritten(self, rst_catalog):
        rewritten = build(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT * FROM s, t WHERE s_col1 = r_col1 AND s_col3 = t_col3)
            """,
        )
        assert [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_inequality_correlation_not_rewritten(self, rst_catalog):
        rewritten = build(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT * FROM s WHERE s_col1 > r_col1)
            """,
        )
        assert [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_not_exists_becomes_anti_join(self, rst_catalog):
        rewritten = build(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE NOT EXISTS (
              SELECT * FROM s WHERE s_col1 = r_col1)
            """,
        )
        semis = [n for n in rewritten.walk() if isinstance(n, SemiJoin)]
        assert semis and semis[0].negated

    def test_anti_join_results(self, rst_catalog):
        from repro.core import NestGPU

        db = NestGPU(rst_catalog)
        import numpy as np

        result = db.execute(
            "SELECT r_col1 FROM r WHERE NOT EXISTS "
            "(SELECT * FROM s WHERE s_col1 = r_col1)",
            mode="nested",
        )
        r_keys = rst_catalog.table("r").column("r_col1").data
        s_keys = set(rst_catalog.table("s").column("s_col1").data.tolist())
        expected = int((~np.isin(r_keys, list(s_keys))).sum())
        assert result.num_rows == expected

    def test_try_exists_semijoin_returns_the_built_plan(self, tpch_small):
        # the builder applies the rule; the post-build entry point is a no-op
        block = Binder(tpch_small).bind(parse(queries.TPCH_Q4))
        plan = PlanBuilder(tpch_small).build(block)
        assert try_exists_semijoin(plan, block) is plan


class TestMagicSets:
    """The magic set seeds the derived table on the subquery's equality
    correlation (``unnest._seed_with_magic_set`` takes the first pair)."""

    def test_candidate_found_for_q2(self, tpch_small):
        block = Binder(tpch_small).bind(parse(queries.TPCH_Q2))
        ((inner_col, qual),) = _equality_correlations(block.subqueries[0].block)
        assert qual == "part.p_partkey"
        assert inner_col.column == "ps_partkey"

    def test_no_candidate_for_inequality(self, tpch_small):
        block = Binder(tpch_small).bind(parse(queries.PAPER_Q5))
        with pytest.raises(UnnestingError):
            _equality_correlations(block.subqueries[0].block)

    def test_magic_sets_reduce_work(self, tpch_small):
        """The semi-join seeded derived table touches fewer rows."""
        from repro.baselines import MonetDBLike, PostgresUnnested
        from repro.baselines.specs import monetdb_spec
        from repro.core import NestGPU
        from repro.engine import EngineOptions

        plain = NestGPU(tpch_small, device=monetdb_spec())
        magic = NestGPU(tpch_small, device=monetdb_spec(), magic_sets=True)
        sql = queries.TPCH_Q17  # huge inner table, tiny outer key set
        a = plain.execute(sql, mode="unnested")
        b = magic.execute(sql, mode="unnested")
        from conftest import rows_set

        assert rows_set(a) == rows_set(b)  # float-sum order may differ
        assert b.total_ms < a.total_ms


DERIVED_EXISTS = """
    SELECT count(*) AS c FROM (
      SELECT o_orderkey FROM orders WHERE EXISTS (
        SELECT l_orderkey FROM lineitem
        WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)) AS d
"""
DERIVED_EXISTS_AND_OUTER_EXISTS = """
    SELECT count(*) AS c FROM (
      SELECT o_orderkey, o_custkey FROM orders WHERE EXISTS (
        SELECT l_orderkey FROM lineitem
        WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)) AS d,
      customer
    WHERE c_custkey = d.o_custkey AND EXISTS (
      SELECT n_nationkey FROM nation
      WHERE n_nationkey = c_nationkey AND n_regionkey = 1)
"""
# the same counts without the derived table, for the rowstore oracle
FLAT_EXISTS = """
    SELECT count(*) AS c FROM orders WHERE EXISTS (
      SELECT l_orderkey FROM lineitem
      WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
"""
FLAT_EXISTS_AND_OUTER_EXISTS = """
    SELECT count(*) AS c FROM orders, customer
    WHERE c_custkey = o_custkey AND EXISTS (
      SELECT l_orderkey FROM lineitem
      WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
    AND EXISTS (
      SELECT n_nationkey FROM nation
      WHERE n_nationkey = c_nationkey AND n_regionkey = 1)
"""


class TestDerivedTableExists:
    """An EXISTS inside a FROM-derived table is rewritten with its own
    block's descriptor, never the outer block's."""

    @pytest.fixture(scope="class")
    def tpch_tiny(self):
        from repro.tpch import generate_tpch

        return generate_tpch(0.01)

    @pytest.mark.parametrize(
        "sql, flat, count",
        [
            (DERIVED_EXISTS, FLAT_EXISTS, 28),
            (DERIVED_EXISTS_AND_OUTER_EXISTS, FLAT_EXISTS_AND_OUTER_EXISTS, 14),
        ],
        ids=["derived", "derived-and-outer"],
    )
    def test_every_mode_matches_the_oracle(self, tpch_tiny, sql, flat, count):
        from repro.baselines.rowstore import RowstoreEngine
        from repro.core import NestGPU

        oracle = RowstoreEngine(tpch_tiny).execute(flat).rows
        assert oracle == [(float(count),)]
        for mode in ("nested", "unnested", "auto"):
            rows = NestGPU(tpch_tiny, mode=mode).execute(sql).rows
            assert rows == oracle, mode

    def test_derived_exists_becomes_a_semijoin(self, tpch_tiny):
        from repro.plan.nodes import DerivedScan

        plan = build(tpch_tiny, DERIVED_EXISTS_AND_OUTER_EXISTS)
        (derived,) = [n for n in plan.walk() if isinstance(n, DerivedScan)]
        semis = [n for n in plan.walk() if isinstance(n, SemiJoin)]
        assert len(semis) == 2
        assert [n for n in derived.plan.walk() if isinstance(n, SemiJoin)]
        assert not [n for n in plan.walk() if isinstance(n, SubqueryFilter)]
