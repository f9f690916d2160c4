"""Tests for logical plan construction, pruning, and join ordering."""

import pytest

from repro.errors import PlanError
from repro.plan import Binder, PlanBuilder, explain
from repro.plan.nodes import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    SubqueryFilter,
)
from repro.plan.selectivity import predicate_selectivity
from repro.sql import parse
from repro.tpch import queries


def plan_for(catalog, sql, **kwargs):
    block = Binder(catalog).bind(parse(sql))
    return PlanBuilder(catalog, **kwargs).build(block), block


class TestShape:
    def test_single_table(self, rst_catalog):
        plan, _ = plan_for(rst_catalog, "SELECT r_col1 FROM r WHERE r_col2 > 3")
        assert isinstance(plan, Project)
        scan = plan.child
        assert isinstance(scan, Scan) and len(scan.filters) == 1

    def test_filters_pushed_to_scans(self, tpch_small):
        plan, _ = plan_for(
            tpch_small,
            "SELECT p_partkey FROM part, partsupp "
            "WHERE p_partkey = ps_partkey AND p_size = 15",
        )
        scans = [n for n in plan.walk() if isinstance(n, Scan)]
        part_scan = next(s for s in scans if s.table == "part")
        assert len(part_scan.filters) == 1

    def test_join_tree_connected(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q2)
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        # outer block: 5 tables -> 4 joins; inner (unplanned here) not counted
        assert len(joins) == 4

    def test_cartesian_rejected(self, rst_catalog):
        with pytest.raises(PlanError):
            plan_for(rst_catalog, "SELECT r_col1 FROM r, s")

    def test_order_limit_on_top(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q2)
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, Sort)

    def test_subquery_filter_above_join_tree(self, tpch_small):
        plan, block = plan_for(tpch_small, queries.TPCH_Q2)
        subq = [n for n in plan.walk() if isinstance(n, SubqueryFilter)]
        assert len(subq) == 1
        assert subq[0].descriptor is block.subqueries[0]
        # every join sits below the subquery filter (paper Section III-B)
        below = list(subq[0].child.walk())
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        assert all(j in below for j in joins)

    def test_aggregate_with_groups(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q4)
        aggs = [n for n in plan.walk() if isinstance(n, Aggregate)]
        assert len(aggs) == 1 and aggs[0].groups

    def test_explain_renders(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q2)
        text = explain(plan)
        assert "SCAN part" in text and "SUBQFILTER" in text


class TestPruning:
    def test_scan_columns_pruned(self, tpch_small):
        plan, _ = plan_for(
            tpch_small,
            "SELECT p_partkey FROM part WHERE p_size = 15",
        )
        scan = next(n for n in plan.walk() if isinstance(n, Scan))
        assert set(scan.columns) == {"p_partkey", "p_size"}

    def test_correlated_columns_retained(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q17)
        part_scan = next(
            n for n in plan.walk()
            if isinstance(n, Scan) and n.table == "part"
        )
        # p_partkey feeds the subquery loop even though the outer block
        # also joins on it
        assert "p_partkey" in part_scan.columns

    def test_unused_wide_columns_dropped(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q17)
        lineitem_scans = [
            n for n in plan.walk()
            if isinstance(n, Scan) and n.table == "lineitem"
        ]
        for scan in lineitem_scans:
            assert "l_comment" not in scan.columns


class TestJoinOrder:
    def test_smallest_filtered_table_first(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q2)
        # the deepest-left scan should be the heavily filtered part table
        node = plan
        while not isinstance(node, Scan):
            node = node.children()[0]
        assert node.table in ("part", "region")  # both tiny after filters

    def test_selectivity_estimates(self, tpch_small):
        builder = PlanBuilder(tpch_small)
        block = Binder(tpch_small).bind(parse(
            "SELECT p_partkey FROM part WHERE p_size = 15"
        ))
        plan = builder.build(block)
        scan = next(n for n in plan.walk() if isinstance(n, Scan))
        sel = predicate_selectivity(tpch_small, scan.filters[0], "part")
        assert 0.005 < sel < 0.1  # ~1/50


class TestUnnestedBuild:
    def test_q2_unnests_to_flat_plan(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q2, unnest=True)
        assert not [n for n in plan.walk() if isinstance(n, SubqueryFilter)]

    def test_derived_scan_present(self, tpch_small):
        from repro.plan.nodes import DerivedScan

        plan, _ = plan_for(tpch_small, queries.TPCH_Q2, unnest=True)
        assert [n for n in plan.walk() if isinstance(n, DerivedScan)]

    def test_exists_unnests_to_semijoin(self, tpch_small):
        from repro.plan.nodes import SemiJoin, Distinct

        plan, _ = plan_for(tpch_small, queries.TPCH_Q4, unnest=True)
        assert [n for n in plan.walk() if isinstance(n, SemiJoin)]
        # the paper's extra dedup (GROUP BY) is present
        assert [n for n in plan.walk() if isinstance(n, Distinct)]

    def test_magic_sets_inserts_semijoin(self, tpch_small):
        from repro.plan.nodes import SemiJoin

        plan, _ = plan_for(
            tpch_small, queries.TPCH_Q2, unnest=True, magic_sets=True
        )
        assert [n for n in plan.walk() if isinstance(n, SemiJoin)]


def _all_plan_nodes(plan):
    """Every node of a tree-of-trees, inner plans included."""
    from repro.plan.nodes import SubqueryColumn

    for node in plan.walk():
        yield node
        if isinstance(node, SubqueryFilter):
            for inner in node.inners:
                yield from _all_plan_nodes(inner)
        elif isinstance(node, SubqueryColumn):
            yield from _all_plan_nodes(node.inner)


class TestTreeOfTrees:
    """Every SUBQ node owns the inner plan of each subquery it evaluates."""

    BODY_WITH_EXISTS = (
        "SELECT r_col1 FROM r WHERE r_col2 >= (SELECT min(s_col2) FROM s "
        "WHERE s_col1 = r_col1 AND EXISTS "
        "(SELECT t_col1 FROM t WHERE t_col1 = s_col3))"
    )

    def test_one_inner_plan_per_descriptor(self, rst_catalog):
        plan, _ = plan_for(
            rst_catalog,
            "SELECT r_col1 FROM r WHERE r_col2 > ALL (SELECT s_col2 FROM s "
            "WHERE s_col1 = r_col1) OR r_col2 = (SELECT min(s_col2) FROM s)",
        )
        (node,) = [n for n in plan.walk() if isinstance(n, SubqueryFilter)]
        assert len(node.descriptors) >= 2
        assert len(node.inners) == len(node.descriptors)
        for descriptor, inner in zip(node.descriptors, node.inners):
            assert isinstance(inner, Project)
            assert inner.names == list(descriptor.block.select_names)

    def test_walk_does_not_enter_inner_plans(self, tpch_small):
        plan, _ = plan_for(tpch_small, queries.TPCH_Q2)
        outer = {id(n) for n in plan.walk()}
        (node,) = [n for n in plan.walk() if isinstance(n, SubqueryFilter)]
        assert not outer & {id(n) for n in node.inners[0].walk()}

    def test_a_subq_body_never_takes_the_semijoin_rewrite(self, rst_catalog):
        from repro.plan.nodes import SemiJoin

        plan, _ = plan_for(rst_catalog, self.BODY_WITH_EXISTS)
        (node,) = [n for n in plan.walk() if isinstance(n, SubqueryFilter)]
        body = list(_all_plan_nodes(node.inners[0]))
        assert [n for n in body if isinstance(n, SubqueryFilter)]
        assert not [n for n in body if isinstance(n, SemiJoin)]

    def test_a_semijoin_exists_body_is_never_planned(self, tpch_small, monkeypatch):
        calls = []
        build = PlanBuilder.build

        def counting(self, block):
            calls.append(block)
            return build(self, block)

        monkeypatch.setattr(PlanBuilder, "build", counting)
        plan, block = plan_for(tpch_small, queries.TPCH_Q4)
        assert calls == [block]
        assert not [n for n in plan.walk() if isinstance(n, SubqueryFilter)]


def test_planning_and_execution_write_no_plan_node_or_block():
    """A prepared auto-mode query run twice: every plan node, inner
    plans included, and every bound block hold exactly their fields."""
    from dataclasses import fields

    from repro.core import NestGPU
    from repro.tpch import generate_tpch

    sql = (
        "SELECT count(*) AS c FROM part WHERE p_size > (SELECT avg(p_size) "
        "FROM part) AND p_retailprice > (SELECT avg(ps_supplycost) FROM "
        "partsupp WHERE ps_partkey = p_partkey)"
    )
    db = NestGPU(generate_tpch(0.05), mode="auto")
    prepared = db.prepare(sql)
    for _ in range(2):
        db.run_prepared(prepared)
    nodes = list(_all_plan_nodes(prepared.plan))
    assert any(isinstance(n, SubqueryFilter) for n in nodes)
    for obj in nodes + list(prepared.block.all_blocks()):
        assert set(vars(obj)) == {f.name for f in fields(obj)}, type(obj)
