"""Tests for the vectorized (batched, segmented) subquery path."""

import numpy as np
import pytest

from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.tpch import queries

from conftest import rows_set


class TestEligibility:
    def _info_and_plan(self, catalog, sql):
        from repro.plan import Binder, PlanBuilder, mark_invariants
        from repro.sql import parse

        block = Binder(catalog).bind(parse(sql))
        builder = PlanBuilder(catalog)
        builder.build(block)
        plan = builder.build(block.subqueries[0].block)
        return plan, mark_invariants(plan)

    def test_equality_correlation_vectorizable(self, rst_catalog):
        from repro.core.vectorize import can_vectorize

        plan, info = self._info_and_plan(rst_catalog, queries.PAPER_Q1)
        assert can_vectorize(plan, info, "scalar")

    def test_inequality_correlation_not_vectorizable(self, rst_catalog):
        from repro.core.vectorize import can_vectorize

        plan, info = self._info_and_plan(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE r_col2 = (
              SELECT min(s_col2) FROM s WHERE s_col1 > r_col1)
            """,
        )
        assert not can_vectorize(plan, info, "scalar")

    def test_q2_inner_vectorizable(self, tpch_small):
        from repro.core.vectorize import can_vectorize

        plan, info = self._info_and_plan(tpch_small, queries.TPCH_Q2)
        assert can_vectorize(plan, info, "scalar")

    def test_nested_subquery_not_vectorizable(self, rst_catalog):
        from repro.core.vectorize import can_vectorize

        plan, info = self._info_and_plan(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE r_col2 = (
              SELECT min(s_col2) FROM s WHERE s_col1 = r_col1 AND s_col3 = (
                SELECT max(t_col3) FROM t WHERE t_col1 = s_col1))
            """,
        )
        assert not can_vectorize(plan, info, "scalar")


class TestEquivalence:
    """The fused batch path must agree with the per-iteration loop."""

    @pytest.mark.parametrize("name", ["tpch_q2", "tpch_q17", "paper_q7"])
    def test_same_results(self, tpch_small, name):
        sql = queries.ALL_EVALUATION_QUERIES[name]
        vec = NestGPU(tpch_small, options=EngineOptions(vector_batch=64))
        loop = NestGPU(tpch_small, options=EngineOptions(use_vectorization=False))
        assert rows_set(vec.execute(sql, mode="nested")) == rows_set(
            loop.execute(sql, mode="nested")
        )

    def test_batch_size_one(self, tpch_small):
        one = NestGPU(tpch_small, options=EngineOptions(vector_batch=1))
        big = NestGPU(tpch_small, options=EngineOptions(vector_batch=4096))
        sql = queries.TPCH_Q2
        assert rows_set(one.execute(sql, mode="nested")) == rows_set(
            big.execute(sql, mode="nested")
        )

    def test_rst_min_subquery(self, rst_catalog):
        vec = NestGPU(rst_catalog, options=EngineOptions(vector_batch=8))
        loop = NestGPU(rst_catalog, options=EngineOptions(use_vectorization=False))
        assert rows_set(vec.execute(queries.PAPER_Q1, mode="nested")) == rows_set(
            loop.execute(queries.PAPER_Q1, mode="nested")
        )

    def test_query3_invariant_join(self, rst_catalog):
        vec = NestGPU(rst_catalog, options=EngineOptions(vector_batch=16))
        loop = NestGPU(rst_catalog, options=EngineOptions(use_vectorization=False))
        assert rows_set(vec.execute(queries.PAPER_Q3, mode="nested")) == rows_set(
            loop.execute(queries.PAPER_Q3, mode="nested")
        )


class TestPerformance:
    def test_fewer_launches_with_batching(self, tpch_small):
        vec = NestGPU(tpch_small)
        loop = NestGPU(tpch_small, options=EngineOptions(use_vectorization=False, use_cache=False))
        sql = queries.PAPER_Q7
        fast = vec.execute(sql, mode="nested")
        slow = loop.execute(sql, mode="nested")
        assert fast.stats.kernel_launches < slow.stats.kernel_launches
        assert fast.total_ms < slow.total_ms
