"""Tests for Kim's unnesting and its refusal boundary."""

import pytest

from repro.errors import UnnestingError
from repro.plan import Binder, PlanBuilder
from repro.sql import parse
from repro.tpch import queries


def build_unnested(catalog, sql):
    block = Binder(catalog).bind(parse(sql))
    return PlanBuilder(catalog, unnest=True).build(block)


class TestUnnestable:
    def test_type_ja_min(self, rst_catalog):
        build_unnested(rst_catalog, queries.PAPER_Q1)

    def test_type_ja_avg_arithmetic(self, tpch_small):
        build_unnested(tpch_small, queries.TPCH_Q17)

    def test_exists(self, tpch_small):
        build_unnested(tpch_small, queries.TPCH_Q4)

    def test_uncorrelated_scalar_kept(self, rst_catalog):
        plan = build_unnested(
            rst_catalog,
            "SELECT r_col1 FROM r WHERE r_col2 = (SELECT min(s_col2) FROM s)",
        )
        from repro.plan.nodes import SubqueryFilter

        nodes = [n for n in plan.walk() if isinstance(n, SubqueryFilter)]
        assert len(nodes) == 1
        assert len(nodes[0].inners) == 1

    def test_multi_column_correlation(self, rst_catalog):
        plan = build_unnested(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE r_col2 = (
              SELECT min(s_col2) FROM s
              WHERE s_col1 = r_col1 AND s_col3 = r_col2)
            """,
        )
        from repro.plan.nodes import SubqueryFilter

        assert not [n for n in plan.walk() if isinstance(n, SubqueryFilter)]


class TestRefusals:
    def test_not_equal_correlation(self, tpch_small):
        with pytest.raises(UnnestingError):
            build_unnested(tpch_small, queries.PAPER_Q5)

    def test_less_than_correlation(self, rst_catalog):
        with pytest.raises(UnnestingError):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE r_col2 = (
                  SELECT min(s_col2) FROM s WHERE s_col1 > r_col1)
                """,
            )

    def test_correlated_count_in_expression_refused(self, rst_catalog):
        # Dayal's method handles a bare count; an expression over the
        # count would make the outer-join default wrong, so refuse
        with pytest.raises(UnnestingError):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE r_col2 = (
                  SELECT count(*) + 1 FROM s WHERE s_col1 = r_col1)
                """,
            )

    def test_correlated_in(self, rst_catalog):
        with pytest.raises(UnnestingError):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE r_col1 IN (
                  SELECT s_col1 FROM s WHERE s_col2 = r_col2)
                """,
            )

    def test_non_aggregate_scalar(self, rst_catalog):
        with pytest.raises(UnnestingError):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE r_col2 = (
                  SELECT s_col2 FROM s WHERE s_col1 = r_col1)
                """,
            )

    def test_disjunctive_correlation(self, rst_catalog):
        # Guravannavar: the correlated equality only constrains one arm
        # of the disjunction, so grouping by it is unsound.
        with pytest.raises(UnnestingError, match="disjunctive correlation"):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE r_col2 = (
                  SELECT min(s_col2) FROM s
                  WHERE ((s_col1 = r_col1) OR (s_col3 > 5)))
                """,
            )

    def test_not_wrapped_correlated_in(self, rst_catalog):
        with pytest.raises(UnnestingError):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE (NOT r_col1 IN (
                  SELECT s_col1 FROM s WHERE s_col2 = r_col2))
                """,
            )

    def test_scalar_under_disjunction(self, rst_catalog):
        # The derived-table inner join drops outer rows with empty
        # groups; under OR those rows may still be TRUE via the other
        # arm, so the rewrite must refuse at plan time.
        with pytest.raises(UnnestingError, match="disjunction"):
            build_unnested(
                rst_catalog,
                """
                SELECT r_col1 FROM r WHERE ((r_col2 > 99) OR (r_col2 = (
                  SELECT min(s_col2) FROM s WHERE s_col1 = r_col1)))
                """,
            )


class TestAutoFallback:
    """Plan-time refusals let auto mode fall back to the nested method."""

    @pytest.mark.parametrize("sql", [
        # disjunctive correlation inside the subquery body
        """
        SELECT r_col1 FROM r WHERE r_col2 = (
          SELECT min(s_col2) FROM s
          WHERE ((s_col1 = r_col1) OR (s_col3 > 5)))
        """,
        # correlated IN under NOT
        """
        SELECT r_col1 FROM r WHERE (NOT r_col1 IN (
          SELECT s_col1 FROM s WHERE s_col2 = r_col2))
        """,
        # scalar subquery under a disjunction
        """
        SELECT r_col1 FROM r WHERE ((r_col2 > 99) OR (r_col2 = (
          SELECT min(s_col2) FROM s WHERE s_col1 = r_col1)))
        """,
    ])
    def test_auto_executes_refused_shapes(self, rst_catalog, sql):
        from repro.core import NestGPU

        db = NestGPU(rst_catalog)
        with pytest.raises(UnnestingError):
            db.execute(sql, mode="unnested")
        nested = db.execute(sql, mode="nested")
        auto = db.execute(sql, mode="auto")
        assert sorted(auto.rows) == sorted(nested.rows)


class TestEquivalence:
    """Query 1 unnested by our rewriter == the paper's hand-written Query 2."""

    def test_query1_equals_query2(self, rst_catalog):
        from repro.core import NestGPU

        db = NestGPU(rst_catalog)
        ours = db.execute(queries.PAPER_Q1, mode="unnested")
        hand_written = db.execute(queries.PAPER_Q2_UNNESTED, mode="nested")
        assert sorted(ours.rows) == sorted(hand_written.rows)
        assert ours.num_rows > 0  # fixture guarantees hits

    def test_query1_nested_equals_unnested(self, rst_catalog):
        from repro.core import NestGPU

        db = NestGPU(rst_catalog)
        nested = db.execute(queries.PAPER_Q1, mode="nested")
        unnested = db.execute(queries.PAPER_Q1, mode="unnested")
        assert sorted(nested.rows) == sorted(unnested.rows)
