"""A straightforward plan interpreter for flat (unnested) plans.

Every engine, the GPU baselines (GPUDB+, OmniSci-like) included, runs
``NestGPU.execute``; this evaluator runs the flat pieces inside it:
invariant subtrees hoisted out of the SUBQ loop and uncorrelated
subqueries (:mod:`repro.core.runtime`), the cost model's measured outer
block and the sharded coordinator's tail.  It memoises results by
plan-node identity within one run, so shared subtrees (magic-set
push-down) execute once — mirroring common-subexpression reuse in real
engines.

``SubqueryFilter`` and ``SubqueryColumn`` nodes are only accepted when
uncorrelated (type-A/N: run the inner plans the node carries once,
substitute each leaf's value).  Correlated subqueries never reach this
evaluator — they are either unnested away or executed by the NestGPU
drive program (:mod:`repro.core`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..gpu import kernels
from ..plan.expressions import Const, _replace_subquery_refs
from ..plan.nodes import (
    Aggregate,
    CrossJoin,
    DerivedScan,
    Distinct,
    Filter,
    Join,
    LeftLookup,
    Limit,
    Plan,
    Project,
    Scan,
    SemiJoin,
    Sort,
    SubqueryColumn,
    SubqueryFilter,
)
from . import operators as ops
from .exprs import _eval_three_valued
from .relation import Relation, computed_column


def run_plan(
    ctx,
    plan: Plan,
    env: dict[str, float] | None = None,
    memo: dict[int, Relation] | None = None,
) -> Relation:
    """Execute a flat plan, returning the result relation."""
    if memo is None:
        memo = {}
    return _run(ctx, plan, env, memo)


def _run(ctx, node: Plan, env, memo) -> Relation:
    key = id(node)
    if key in memo:
        return memo[key]
    result = _dispatch(ctx, node, env, memo)
    memo[key] = result
    return result


def _dispatch(ctx, node: Plan, env, memo) -> Relation:
    if isinstance(node, Scan):
        return ops.scan(
            ctx, node.table, node.binding, node.filters, env, node.columns
        )
    if isinstance(node, DerivedScan):
        inner = _run(ctx, node.plan, env, memo)
        return inner.renamed_prefix(node.binding)
    if isinstance(node, CrossJoin):
        left = _run(ctx, node.left, env, memo)
        right = _run(ctx, node.right, env, memo)
        return ops.cross_join(ctx, left, right)
    if isinstance(node, Join):
        left = _run(ctx, node.left, env, memo)
        right = _run(ctx, node.right, env, memo)
        return ops.join(
            ctx, left, right, node.left_key, node.right_key, env,
            build_side=node.build_side,
        )
    if isinstance(node, Filter):
        child = _run(ctx, node.child, env, memo)
        return ops.filter_rel(ctx, child, node.predicate, env)
    if isinstance(node, SemiJoin):
        child = _run(ctx, node.child, env, memo)
        inner = _run(ctx, node.inner, env, memo)
        return ops.semi_join(
            ctx, child, inner, node.outer_key, node.inner_key, node.negated, env
        )
    if isinstance(node, LeftLookup):
        child = _run(ctx, node.child, env, memo)
        inner = _run(ctx, node.inner, env, memo)
        return ops.left_lookup(
            ctx, child, inner, node.outer_key, node.inner_key,
            node.value_column, node.output_name, node.default, env,
        )
    if isinstance(node, SubqueryFilter):
        return _run_uncorrelated_subquery(ctx, node, env, memo)
    if isinstance(node, SubqueryColumn):
        return _run_uncorrelated_subquery_column(ctx, node, env, memo)
    if isinstance(node, Aggregate):
        child = _run(ctx, node.child, env, memo)
        return ops.aggregate(ctx, child, node.groups, node.aggs, node.having, env)
    if isinstance(node, Project):
        child = _run(ctx, node.child, env, memo)
        return ops.project(ctx, child, node.exprs, node.names)
    if isinstance(node, Distinct):
        child = _run(ctx, node.child, env, memo)
        return ops.distinct(ctx, child)
    if isinstance(node, Sort):
        child = _run(ctx, node.child, env, memo)
        return ops.sort(ctx, child, node.keys, node.descending)
    if isinstance(node, Limit):
        child = _run(ctx, node.child, env, memo)
        return ops.limit(ctx, child, node.count)
    raise ExecutionError(f"evaluator cannot execute node {node!r}")


def _run_uncorrelated_subquery(ctx, node: SubqueryFilter, env, memo) -> Relation:
    """Run each inner plan once, then select from the child.

    Each ``SUBQ`` leaf becomes a constant: an EXISTS leaf its truth
    value, a scalar leaf the value of its own inner plan (NaN for
    NULL).  Without a NULL the predicate is an ordinary filter; with
    one it is evaluated in three-valued logic, so ``x > NULL OR y < 5``
    keeps the rows where ``y < 5`` and ``NOT (x > NULL)`` keeps none.
    """
    if any(descriptor.is_correlated for descriptor in node.descriptors):
        raise ExecutionError(
            "correlated SUBQ reached the flat-plan evaluator; this engine "
            "requires unnesting (or use NestGPU's nested method)"
        )
    child = _run(ctx, node.child, env, memo)
    mapping = {}
    for descriptor, plan in zip(node.descriptors, node.inners):
        inner = _run(ctx, plan, env, memo)
        if descriptor.kind == "exists":
            value = (inner.num_rows > 0) != descriptor.negated
        elif descriptor.kind == "scalar":
            value = _scalar_value(inner)
        else:
            raise ExecutionError(
                f"the flat-plan evaluator cannot apply subquery kinds "
                f"{[d.kind for d in node.descriptors]} in one predicate"
            )
        mapping[descriptor.index] = Const(value)
    predicate = _replace_subquery_refs(node.predicate, mapping)
    if not any(np.isnan(const.value) for const in mapping.values()):
        return ops.filter_rel(ctx, child, predicate, env)
    truth, _ = _eval_three_valued(predicate, child, ctx, {})
    out = child.take_no_charge(kernels.compact(ctx.device, truth))
    ops._materialize(ctx, out)
    ctx.operator_done()
    return out


def _run_uncorrelated_subquery_column(
    ctx, node: SubqueryColumn, env, memo
) -> Relation:
    """An uncorrelated scalar SUBQ in a SELECT list: one value per row.

    Reached when an uncorrelated WHERE/IN/EXISTS subquery's own SELECT
    list holds another uncorrelated scalar subquery.
    """
    if node.descriptor.is_correlated:
        raise ExecutionError(
            "correlated SELECT-list SUBQ reached the flat-plan evaluator"
        )
    child = _run(ctx, node.child, env, memo)
    value = _scalar_value(_run(ctx, node.inner, env, memo))
    data = np.full(child.num_rows, value, dtype=np.float64)
    return child.with_columns(
        {node.output_name: computed_column(node.output_name, data)}
    )


def _scalar_value(inner: Relation) -> float:
    if inner.num_rows != 1:
        raise ExecutionError(f"scalar subquery returned {inner.num_rows} rows")
    return float(inner.first_column().data[0])
