"""The operator table and a plan interpreter for flat (unnested) plans.

:func:`run_operator` is the one place a plan node's fields become an
:mod:`~repro.engine.operators` call.  Everything that executes an
operator node goes through it: :func:`run_plan` below, every operator
entry point of the drive-program runtime (:mod:`repro.core.runtime`,
whose ``t_*`` twins pass the loop's parameter environment and whose
``f_*`` twins pass ``fused=True``), the cost model's costing probe and
the vectorised SUBQ path's projection.  Only the transient scan (index
probe) and the transient join (hoisted hash table) of a SUBQ loop keep
their own behaviour.

Every engine, the GPU baselines (GPUDB+, OmniSci-like) included, runs
``NestGPU.execute``; :func:`run_plan` runs the flat pieces inside it:
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
from ..plan.expressions import AggRef, Const, _replace_subquery_refs
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
from .exprs import _eval_in_three_valued, _eval_three_valued
from .relation import Relation, computed_column


def run_operator(ctx, node: Plan, inputs, env=None, fused: bool = False):
    """Run one operator node over its input relations.

    ``inputs`` are the node's inputs in ``node.children()`` order;
    ``env`` binds correlated parameters; ``fused`` charges a selection's
    predicate chain and compaction tail as one launch (only scans and
    filters fuse).  Dispatch compares types instead of calling
    ``isinstance``: this runs once per operator on the hot path.
    """
    kind = type(node)
    if kind is Scan:
        return ops.scan(
            ctx, node.table, node.binding, node.filters, env, node.columns,
            fused=fused,
        )
    if kind is Join:
        left, right = inputs
        return ops.join(
            ctx, left, right, node.left_key, node.right_key, env,
            build_side=node.build_side,
        )
    if kind is Filter:
        return ops.filter_rel(ctx, inputs[0], node.predicate, env, fused=fused)
    if kind is Aggregate:
        return ops.aggregate(
            ctx, inputs[0], node.groups, node.aggs, node.having, env
        )
    if kind is Project:
        return ops.project(ctx, inputs[0], node.exprs, node.names)
    if kind is Sort:
        return ops.sort(ctx, inputs[0], node.keys, node.descending)
    if kind is Limit:
        return ops.limit(ctx, inputs[0], node.count)
    if kind is Distinct:
        return ops.distinct(ctx, inputs[0])
    if kind is SemiJoin:
        child, inner = inputs
        return ops.semi_join(
            ctx, child, inner, node.outer_key, node.inner_key, node.negated,
            env,
        )
    if kind is LeftLookup:
        child, inner = inputs
        return ops.left_lookup(
            ctx, child, inner, node.outer_key, node.inner_key,
            node.value_column, node.output_name, node.default, env,
        )
    if kind is CrossJoin:
        left, right = inputs
        return ops.cross_join(ctx, left, right)
    if kind is DerivedScan:
        return inputs[0].renamed_prefix(node.binding)
    raise ExecutionError(f"no operator runs node {node!r}")


def run_plan(
    ctx,
    plan: Plan,
    env: dict[str, float] | None = None,
    memo: dict[int, Relation] | None = None,
) -> Relation:
    """Execute a flat plan, returning the result relation."""
    if memo is None:
        memo = {}
    key = id(plan)
    if key in memo:
        return memo[key]
    kind = type(plan)
    if kind is SubqueryFilter:
        result = _run_uncorrelated_subquery(ctx, plan, env, memo)
    elif kind is SubqueryColumn:
        result = _run_uncorrelated_subquery_column(ctx, plan, env, memo)
    else:
        inputs = [run_plan(ctx, child, env, memo) for child in plan.children()]
        result = run_operator(ctx, plan, inputs, env)
    memo[key] = result
    return result


def _run_uncorrelated_subquery(ctx, node: SubqueryFilter, env, memo) -> Relation:
    """Run each inner plan once, then select from the child.

    An EXISTS leaf becomes its truth value and a scalar leaf the value
    of its own inner plan (NaN for NULL).  An IN leaf becomes a per-row
    membership column in three-valued logic.  Without an IN leaf or a
    NULL the predicate is an ordinary filter; otherwise it is evaluated
    in three-valued logic, so ``x > NULL OR y < 5`` keeps the rows
    where ``y < 5`` and ``NOT (x > NULL)`` keeps none.
    """
    if any(descriptor.is_correlated for descriptor in node.descriptors):
        raise ExecutionError(
            "correlated SUBQ reached the flat-plan evaluator; this engine "
            "requires unnesting (or use NestGPU's nested method)"
        )
    child = run_plan(ctx, node.child, env, memo)
    mapping = {}
    columns = {}
    known_cols = {}
    null_scalar = False
    for descriptor, plan in zip(node.descriptors, node.inners):
        inner = run_plan(ctx, plan, env, memo)
        if descriptor.kind == "exists":
            value = (inner.num_rows > 0) != descriptor.negated
        elif descriptor.kind == "scalar":
            value = scalar_value(inner)
            null_scalar = null_scalar or np.isnan(value)
        else:  # in: one set S shared by every row
            values = inner.first_column().data.astype(np.float64)
            marker = f"__subq{descriptor.index}"
            truth, known_cols[marker] = _eval_in_three_valued(
                ctx, child, descriptor.in_operand,
                lambda operand: np.isin(operand, values),
                len(values) == 0, bool(np.isnan(values).any()),
                descriptor.negated,
            )
            columns[marker] = computed_column(marker, truth)
            mapping[descriptor.index] = AggRef(marker)
            continue
        mapping[descriptor.index] = Const(value)
    predicate = _replace_subquery_refs(node.predicate, mapping)
    if not columns and not null_scalar:
        return ops.filter_rel(ctx, child, predicate, env)
    truth, _ = _eval_three_valued(
        predicate, child.with_columns(columns), ctx, known_cols
    )
    return ops._finish(ctx, child, kernels.compact(ctx.device, truth))


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
    child = run_plan(ctx, node.child, env, memo)
    value = scalar_value(run_plan(ctx, node.inner, env, memo))
    data = np.full(child.num_rows, value, dtype=np.float64)
    return child.with_columns(
        {node.output_name: computed_column(node.output_name, data)}
    )


def scalar_value(inner: Relation) -> float:
    """The value of a scalar subquery's result; NaN stands for NULL.

    The one check that a scalar subquery yields exactly one row, for
    the flat evaluator and the drive-program runtime alike.
    """
    if inner.num_rows != 1:
        raise ExecutionError(f"scalar subquery returned {inner.num_rows} rows")
    return float(inner.first_column().data[0])
