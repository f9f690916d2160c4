"""Plan-level rewrites: column pruning and the EXISTS semi-join.

These are shared by NestGPU and the baselines; what distinguishes the
systems is which rewrites they enable.  (The magic-set push-down that
gives the MonetDB-like engine its edge on Q2/Q17 is part of unnesting:
``unnest._seed_with_magic_set``.)
"""

from __future__ import annotations

from .binder import BoundBlock
from .expressions import (
    ColRef,
    Compare,
    NotOp,
    ParamRef,
    PlanExpr,
    SubqueryRef,
    referenced_params,
)
from .nodes import Plan, Scan, SemiJoin, SubqueryColumn, SubqueryFilter


# ---------------------------------------------------------------------------
# column pruning
# ---------------------------------------------------------------------------


def prune_scan_columns(plan: Plan, catalog) -> None:
    """Restrict every base-table scan to the columns the plan touches.

    The required set also includes the free quals of every subquery —
    the outer columns the drive program iterates over — taken from the
    descriptors the builder attached to each
    :class:`~repro.plan.nodes.SubqueryFilter`.  Inner plans are not
    entered: the builder prunes each body when it plans it.
    """
    required: set[str] = set()
    _collect_quals(plan, required)
    for node in plan.walk():
        if isinstance(node, Scan):
            all_columns = catalog.table(node.table).column_names
            keep = [
                column
                for column in all_columns
                if f"{node.binding}.{column}" in required
            ]
            node.columns = keep or [all_columns[0]]


def _collect_quals(node: Plan, required: set[str]) -> None:
    """Add the quals ``node``'s subtree reads (not a cyclic closure)."""
    from .invariants import _exprs_of  # shared expression walker

    for expr in _exprs_of(node):
        for ref in expr.walk():
            if isinstance(ref, ColRef):
                required.add(ref.qual)
    if isinstance(node, SubqueryFilter):
        for descriptor in node.descriptors:
            required.update(descriptor.free_quals)
            if descriptor.in_operand is not None:
                for ref in descriptor.in_operand.walk():
                    if isinstance(ref, ColRef):
                        required.add(ref.qual)
    if isinstance(node, SubqueryColumn):
        required.update(node.descriptor.free_quals)
    for child in node.children():
        _collect_quals(child, required)


# ---------------------------------------------------------------------------
# EXISTS -> semi-join fast path (paper: NestGPU on TPC-H Q4)
# ---------------------------------------------------------------------------


def as_semijoin(
    child: Plan, predicate: PlanExpr, descriptors: tuple
) -> SemiJoin | None:
    """The GPU semi-join that replaces an EXISTS conjunct, when legal.

    Legal when the conjunct is a bare ``[NOT] EXISTS`` over one
    subquery whose only correlation is a single equality between an
    inner column and one outer column, and whose block is a plain
    one-table filter block (no aggregation, no nested subquery).  The
    semi-join keeps the inner block's non-correlated filters and joins
    on the correlation keys, which is how NestGPU beats every unnested
    system on Q4.  The plan builder applies this rule as it attaches a
    subquery conjunct, outside SUBQ bodies only, so a legal conjunct's
    body is never planned.
    """
    if len(descriptors) != 1:
        return None
    (descriptor,) = descriptors
    if descriptor.kind != "exists":
        return None
    inner_block = descriptor.block
    if inner_block.is_aggregate or inner_block.subqueries:
        return None
    if len(inner_block.tables) != 1:
        return None
    correlation = _single_equality_correlation(inner_block)
    if correlation is None:
        return None
    inner_col, outer_qual = correlation
    negated = descriptor.negated
    while isinstance(predicate, NotOp):
        negated = not negated
        predicate = predicate.operand
    if not isinstance(predicate, SubqueryRef):
        return None
    table = inner_block.tables[0]
    filters = [c for c in inner_block.conjuncts if not referenced_params(c)]
    outer_binding, outer_column = outer_qual.rsplit(".", 1)
    outer_key = ColRef(outer_binding, outer_column, "int")
    return SemiJoin(
        child, Scan(table.table, table.binding, filters), outer_key,
        inner_col, negated,
    )


def try_exists_semijoin(plan: Plan, block: BoundBlock) -> Plan:
    """The plan itself: the builder already applied :func:`as_semijoin`.

    :class:`~repro.plan.builder.PlanBuilder` rewrites each legal EXISTS
    conjunct as it attaches it, so a built plan has nothing left to
    rewrite.  Kept for callers written against the post-build rewrite.
    """
    return plan


def _single_equality_correlation(block: BoundBlock):
    """Find the unique ``inner_col = outer_param`` conjunct."""
    correlation = None
    for conjunct in block.conjuncts:
        params = referenced_params(conjunct)
        if not params:
            continue
        if correlation is not None:
            return None  # more than one correlated conjunct
        if not isinstance(conjunct, Compare) or conjunct.op != "=":
            return None
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColRef) and isinstance(right, ParamRef):
            correlation = (left, right.qual)
        elif isinstance(right, ColRef) and isinstance(left, ParamRef):
            correlation = (right, left.qual)
        else:
            return None
    return correlation
