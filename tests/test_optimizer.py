"""Tests for plan-level rewrites: semi-join fast path, magic sets."""

import pytest

from repro.errors import UnnestingError
from repro.plan import Binder, PlanBuilder, try_exists_semijoin
from repro.plan.nodes import SemiJoin, SubqueryFilter
from repro.plan.unnest import _equality_correlations
from repro.sql import parse
from repro.tpch import queries


def plan_and_block(catalog, sql):
    block = Binder(catalog).bind(parse(sql))
    return PlanBuilder(catalog).build(block), block


class TestExistsSemijoin:
    def test_q4_rewrites(self, tpch_small):
        plan, block = plan_and_block(tpch_small, queries.TPCH_Q4)
        rewritten = try_exists_semijoin(plan, block)
        assert [n for n in rewritten.walk() if isinstance(n, SemiJoin)]
        assert not [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_aggregate_exists_not_rewritten(self, rst_catalog):
        plan, block = plan_and_block(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT min(s_col2) FROM s WHERE s_col1 = r_col1)
            """,
        )
        rewritten = try_exists_semijoin(plan, block)
        assert [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_multi_table_exists_not_rewritten(self, rst_catalog):
        plan, block = plan_and_block(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT * FROM s, t WHERE s_col1 = r_col1 AND s_col3 = t_col3)
            """,
        )
        rewritten = try_exists_semijoin(plan, block)
        assert [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_inequality_correlation_not_rewritten(self, rst_catalog):
        plan, block = plan_and_block(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT * FROM s WHERE s_col1 > r_col1)
            """,
        )
        rewritten = try_exists_semijoin(plan, block)
        assert [n for n in rewritten.walk() if isinstance(n, SubqueryFilter)]

    def test_not_exists_becomes_anti_join(self, rst_catalog):
        plan, block = plan_and_block(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE NOT EXISTS (
              SELECT * FROM s WHERE s_col1 = r_col1)
            """,
        )
        rewritten = try_exists_semijoin(plan, block)
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
