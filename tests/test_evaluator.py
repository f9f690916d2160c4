"""Tests for the flat-plan evaluator (used by the unnested engines)."""

import numpy as np
import pytest

from repro.engine import ExecutionContext, run_plan
from repro.errors import ExecutionError
from repro.gpu import Device, DeviceSpec
from repro.plan import Binder, PlanBuilder
from repro.sql import parse
from repro.tpch import queries


@pytest.fixture()
def ctx(rst_catalog):
    return ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))


def build(catalog, sql, **kwargs):
    block = Binder(catalog).bind(parse(sql))
    return PlanBuilder(catalog, **kwargs).build(block)


class TestBasicPlans:
    def test_scan_project(self, ctx, rst_catalog):
        plan = build(rst_catalog, "SELECT r_col1 FROM r")
        rel = run_plan(ctx, plan)
        assert rel.num_rows == rst_catalog.table("r").num_rows
        assert list(rel.columns) == ["r_col1"]

    def test_filter_order_limit(self, ctx, rst_catalog):
        plan = build(
            rst_catalog,
            "SELECT s_col2 FROM s WHERE s_col2 > 20 ORDER BY s_col2 DESC LIMIT 4",
        )
        rel = run_plan(ctx, plan)
        data = rel.column("s_col2").data
        assert len(data) <= 4
        assert (np.diff(data) <= 0).all()
        assert (data > 20).all()

    def test_join_plan(self, ctx, rst_catalog):
        plan = build(
            rst_catalog,
            "SELECT r_col1, s_col2 FROM r, s WHERE r_col1 = s_col1",
        )
        rel = run_plan(ctx, plan)
        assert rel.num_rows > 0

    def test_group_by_plan(self, ctx, rst_catalog):
        plan = build(
            rst_catalog,
            "SELECT s_col1, count(*) AS n FROM s GROUP BY s_col1 ORDER BY s_col1",
        )
        rel = run_plan(ctx, plan)
        total = rel.column("n").data.sum()
        assert total == rst_catalog.table("s").num_rows

    def test_distinct_plan(self, ctx, rst_catalog):
        plan = build(rst_catalog, "SELECT DISTINCT s_col1 FROM s")
        rel = run_plan(ctx, plan)
        data = rst_catalog.table("s").column("s_col1").data
        assert rel.num_rows == len(np.unique(data))

    def test_having(self, ctx, rst_catalog):
        plan = build(
            rst_catalog,
            "SELECT s_col1 FROM s GROUP BY s_col1 HAVING count(*) > 8",
        )
        rel = run_plan(ctx, plan)
        counts = np.bincount(rst_catalog.table("s").column("s_col1").data)
        assert rel.num_rows == int((counts > 8).sum())


class TestMemoization:
    def test_shared_subtree_runs_once(self, ctx, rst_catalog):
        from repro.plan.nodes import Join, Scan
        from repro.plan.expressions import ColRef

        scan = Scan("s", "s", [])
        # self-join sharing the same scan object on both sides
        key = ColRef("s", "s_col1", "int")
        plan = Join(scan, scan, key, key)
        with pytest.raises(Exception):
            # duplicate column names on merge: expected failure proves
            # we reached the join with both sides evaluated
            run_plan(ctx, plan)

    def test_memo_reuses_result_object(self, ctx, rst_catalog):
        from repro.plan.nodes import Scan

        scan = Scan("s", "s", [])
        memo = {}
        a = run_plan(ctx, scan, memo=memo)
        b = run_plan(ctx, scan, memo=memo)
        assert a is b


class TestSubqueryHandling:
    def test_correlated_subquery_rejected(self, ctx, rst_catalog):
        plan = build(rst_catalog, queries.PAPER_Q1)  # nested-mode plan
        with pytest.raises(ExecutionError):
            run_plan(ctx, plan)

    def test_uncorrelated_scalar_supported(self, ctx, rst_catalog):
        plan = build(
            rst_catalog,
            "SELECT r_col1 FROM r WHERE r_col2 > (SELECT min(s_col2) FROM s)",
            unnest=True,
        )
        rel = run_plan(ctx, plan)
        s_min = rst_catalog.table("s").column("s_col2").data.min()
        r = rst_catalog.table("r")
        expected = int((r.column("r_col2").data > s_min).sum())
        assert rel.num_rows == expected

    def test_unnested_q2_executes(self, tpch_small):
        ctx = ExecutionContext(tpch_small, Device(DeviceSpec.v100()))
        plan = build(tpch_small, queries.TPCH_Q2, unnest=True)
        rel = run_plan(ctx, plan)
        assert rel.num_rows > 0


def test_each_scalar_leaf_takes_its_own_subquery_value():
    """Two uncorrelated scalar subqueries under one OR: each SUBQ leaf
    is replaced by the value of its own inner plan."""
    from repro.baselines.rowstore import RowstoreEngine
    from repro.plan.nodes import SubqueryFilter
    from repro.tpch import generate_tpch

    catalog = generate_tpch(0.05)
    sql = (
        "SELECT count(*) AS c FROM part WHERE (p_size > (SELECT avg(p_size) "
        "FROM part) OR p_retailprice < (SELECT avg(p_retailprice) FROM part))"
    )
    node = next(
        n for n in build(catalog, sql).walk() if isinstance(n, SubqueryFilter)
    )
    assert len(node.inners) == 2
    ctx = ExecutionContext(catalog, Device(DeviceSpec.v100()))
    ((oracle,),) = RowstoreEngine(catalog).execute(sql).rows
    assert run_plan(ctx, node).num_rows == oracle == 80


NULL_SCALAR = "(SELECT avg(p_size) FROM part WHERE p_size > 1000)"
RICH_SUPPLIERS = "(SELECT s_suppkey FROM supplier WHERE s_acctbal > 5000)"
NULL_SET = "(SELECT max(s_suppkey) FROM supplier WHERE s_acctbal > 100000)"


@pytest.mark.parametrize(
    "body",
    [
        "p_size > (SELECT avg(p_size) FROM part) "
        "OR p_retailprice < (SELECT avg(p_retailprice) FROM part)",
        f"p_size > {NULL_SCALAR} "
        "OR p_retailprice < (SELECT avg(p_retailprice) FROM part)",
        f"NOT (p_size > {NULL_SCALAR}) OR p_retailprice < 1000",
        f"NOT (p_size > {NULL_SCALAR})",
        "p_size > (SELECT avg(p_size) FROM part) "
        "OR EXISTS (SELECT * FROM nation WHERE n_nationkey = 99)",
        "p_size > (SELECT avg(p_size) FROM part) "
        "OR NOT EXISTS (SELECT * FROM nation WHERE n_nationkey = 99)",
        "EXISTS (SELECT * FROM nation WHERE n_nationkey = 99) OR p_size < 10",
        "p_partkey IN (SELECT ps_partkey FROM partsupp "
        f"WHERE ps_suppkey IN {RICH_SUPPLIERS})",
        "EXISTS (SELECT ps_partkey FROM partsupp "
        f"WHERE ps_suppkey IN {RICH_SUPPLIERS})",
        "p_partkey NOT IN (SELECT ps_partkey FROM partsupp "
        f"WHERE ps_suppkey NOT IN {RICH_SUPPLIERS})",
        f"p_partkey NOT IN {NULL_SET} OR p_size < 10",
        f"NOT (p_partkey IN {NULL_SET})",
        "p_size > (SELECT avg(p_size) FROM part) "
        "OR p_partkey IN (SELECT ps_partkey FROM partsupp WHERE ps_availqty < 100)",
        "EXISTS (SELECT * FROM nation WHERE n_nationkey = 99) "
        "OR p_partkey NOT IN (SELECT ps_partkey FROM partsupp WHERE ps_suppkey < 10)",
    ],
)
def test_uncorrelated_in_body_matches_the_oracle(body):
    """The body of an uncorrelated IN runs on the flat evaluator
    (``uncorrelated_vector``), so a mix of SUBQ leaves, an IN leaf in
    three-valued logic, or a NULL leaf under OR/NOT, reaches it from
    ``NestGPU.execute``."""
    from repro.baselines.rowstore import RowstoreEngine
    from repro.core import NestGPU
    from repro.tpch import generate_tpch

    catalog = generate_tpch(0.01)  # the oracle reruns each subquery per row

    sql = (
        "SELECT count(*) AS c FROM part WHERE p_partkey IN "
        f"(SELECT p_partkey FROM part WHERE {body})"
    )
    oracle = RowstoreEngine(catalog).execute(sql).rows
    for mode in ("nested", "unnested", "auto"):
        assert NestGPU(catalog).execute(sql, mode=mode).rows == oracle, mode
