"""Unnesting of correlated subqueries (Kim's method, paper Query 1→2).

Type-JA scalar subqueries whose correlations are all equalities become
a derived table — the inner block grouped by its correlated columns and
aggregated — joined back to the outer block, with the original
comparison applied to the aggregate column.  Type-J ``EXISTS`` becomes
a distinct projection semi-joined with the outer block (the paper notes
this extra GROUP BY makes unnested Q4 *slower* than nested Q4 on
PostgreSQL).

Anything outside these rules raises
:class:`~repro.errors.UnnestingError`: non-equality correlation
operators (the paper's Query 5), correlated ``IN``, correlated
references in non-conjunct positions, and ``count`` scalar aggregates
(Kim's count bug — Dayal's outer-join variant is out of scope and the
nested method handles those queries instead).
"""

from __future__ import annotations

from ..errors import UnnestingError
from .binder import BoundBlock, SubqueryDescriptor
from .expressions import (
    AggRef,
    BoolOp,
    ColRef,
    Compare,
    NotOp,
    ParamRef,
    PlanExpr,
    SubqueryRef,
    _replace_subquery_refs,
    referenced_params,
)
from .nodes import (
    Aggregate,
    DerivedScan,
    Distinct,
    Filter,
    Join,
    LeftLookup,
    Plan,
    Project,
    SemiJoin,
    SubqueryFilter,
)


def rewrite_subquery_conjunct(
    builder,
    plan: Plan,
    conjunct: PlanExpr,
    descriptor: SubqueryDescriptor,
) -> Plan:
    """Replace one ``SUBQ`` conjunct with its unnested equivalent."""
    if not descriptor.is_correlated:
        return _keep_uncorrelated(builder, plan, conjunct, descriptor)
    if descriptor.kind == "scalar":
        return _unnest_scalar(builder, plan, conjunct, descriptor)
    if descriptor.kind == "exists":
        return _unnest_exists(builder, plan, conjunct, descriptor)
    raise UnnestingError(
        f"correlated {descriptor.kind.upper()} subqueries cannot be unnested "
        "by Kim's method — use the nested method"
    )


# ---------------------------------------------------------------------------
# uncorrelated (type-A / type-N): evaluate once, no rewrite needed
# ---------------------------------------------------------------------------


def _keep_uncorrelated(builder, plan, conjunct, descriptor) -> Plan:
    return SubqueryFilter(
        plan, conjunct, (descriptor,), (builder.build(descriptor.block),)
    )


# ---------------------------------------------------------------------------
# type-JA: scalar aggregate subquery
# ---------------------------------------------------------------------------


def _unnest_scalar(builder, plan, conjunct, descriptor) -> Plan:
    inner = descriptor.block
    if len(inner.select_exprs) != 1:
        raise UnnestingError("scalar subquery must select exactly one expression")
    if not inner.aggs or inner.group_keys:
        raise UnnestingError(
            "only aggregate scalar subqueries are unnested (type-JA)"
        )
    _check_rewritable(inner)
    pairs = _equality_correlations(inner)
    if any(spec.op == "count" for spec in inner.aggs):
        # Kim's method has the count bug (missing groups must count 0);
        # Dayal's outer-join variant handles the bare-count case
        if len(inner.aggs) != 1 or not isinstance(inner.select_exprs[0], AggRef):
            raise UnnestingError(
                "correlated count() only unnests as a bare aggregate "
                "(Dayal's method); the nested method executes the rest"
            )
        if len(pairs) != 1:
            raise UnnestingError(
                "Dayal count unnesting supports one equality correlation"
            )
        return _unnest_count_dayal(builder, plan, conjunct, descriptor, pairs[0])

    if any(isinstance(part, BoolOp) for part in conjunct.walk()):
        # The derived-table inner join drops outer rows whose group is
        # empty — correct for a bare conjunct (UNKNOWN is excluded) but
        # wrong under a disjunction, where TRUE OR UNKNOWN must keep the
        # row.  (Dayal's count path above is safe: LeftLookup keeps
        # every outer row with a 0 default.)
        raise UnnestingError(
            "scalar subquery under a disjunction cannot be unnested: the "
            "derived-table join drops empty groups that TRUE OR UNKNOWN "
            "must keep — use the nested method"
        )

    # derived block: inner grouped by its correlated columns
    key_names = [f"k{i}" for i in range(len(pairs))]
    derived_block = BoundBlock(
        tables=inner.tables,
        conjuncts=[c for c in inner.conjuncts if not referenced_params(c)],
        select_exprs=[inner_col for inner_col, _ in pairs] + [inner.select_exprs[0]],
        select_names=key_names + ["val"],
        aggs=inner.aggs,
        group_keys=[inner_col for inner_col, _ in pairs],
        having=inner.having,
        order_keys=[],
        limit=None,
        distinct=False,
        subqueries=inner.subqueries,
        params=[],
    )
    derived_plan = builder.build(derived_block)
    binding = builder.next_derived_binding()

    if builder.magic_sets:
        derived_plan = _seed_with_magic_set(derived_plan, plan, pairs)

    scan = DerivedScan(derived_plan, binding, key_names + ["val"])

    # join outer flat part with the derived table on the first pair;
    # remaining pairs become post-join filters
    first_inner, first_outer = pairs[0]
    tree: Plan = Join(
        plan,
        scan,
        _outer_colref(first_outer),
        ColRef(binding, "k0", first_inner.dtype_name),
    )
    for i, (inner_col, outer_qual) in enumerate(pairs[1:], start=1):
        tree = Filter(
            tree,
            Compare(
                "=",
                _outer_colref(outer_qual),
                ColRef(binding, f"k{i}", inner_col.dtype_name),
            ),
        )
    predicate = _replace_subquery_refs(
        conjunct, {descriptor.index: ColRef(binding, "val", "decimal")}
    )
    return Filter(tree, predicate)


def _seed_with_magic_set(derived_plan: Plan, outer_plan: Plan, pairs) -> Plan:
    """Semi-join the derived table's input with the outer flat part.

    This is the MonetDB-like "push outer predicates into the inner
    query": only groups whose key appears in the (already filtered)
    outer relation are aggregated.  The evaluator memoises plans by
    node identity, so the shared ``outer_plan`` subtree is executed
    once.
    """
    inner_key, outer_qual = pairs[0]
    target = derived_plan
    while not isinstance(target, Aggregate):
        children = target.children()
        if not children:
            return derived_plan  # unexpected shape: skip the optimization
        target = children[0] if not isinstance(target, Project) else target.child
    target.child = SemiJoin(
        target.child, outer_plan, inner_key, _outer_colref(outer_qual)
    )
    return derived_plan


def rewrite_select_subquery(
    builder, plan: Plan, descriptor, output_name: str
) -> Plan:
    """Unnest a SELECT-list scalar subquery into an outer-join lookup.

    Outer-join semantics are mandatory here: an outer row whose group
    is empty keeps its place in the result with a NULL (NaN) value —
    or 0 for a bare ``count`` (Dayal).
    """
    inner = descriptor.block
    if len(inner.select_exprs) != 1:
        raise UnnestingError("scalar subquery must select exactly one expression")
    if not inner.aggs or inner.group_keys:
        raise UnnestingError(
            "only aggregate scalar subqueries are unnested (type-JA)"
        )
    if not descriptor.is_correlated:
        from .nodes import SubqueryColumn

        return SubqueryColumn(plan, output_name, descriptor, builder.build(inner))
    _check_rewritable(inner)
    pairs = _equality_correlations(inner)
    if len(pairs) != 1:
        raise UnnestingError(
            "SELECT-list unnesting supports one equality correlation"
        )
    default = float("nan")
    if any(spec.op == "count" for spec in inner.aggs):
        if len(inner.aggs) != 1 or not isinstance(inner.select_exprs[0], AggRef):
            raise UnnestingError(
                "correlated count() only unnests as a bare aggregate"
            )
        default = 0.0
    inner_col, outer_qual = pairs[0]
    derived_block = BoundBlock(
        tables=inner.tables,
        conjuncts=[c for c in inner.conjuncts if not referenced_params(c)],
        select_exprs=[inner_col, inner.select_exprs[0]],
        select_names=["k0", "val"],
        aggs=inner.aggs,
        group_keys=[inner_col],
        having=inner.having,
        order_keys=[],
        limit=None,
        distinct=False,
        subqueries=inner.subqueries,
        params=[],
    )
    derived_plan = builder.build(derived_block)
    binding = builder.next_derived_binding()
    scan = DerivedScan(derived_plan, binding, ["k0", "val"])
    return LeftLookup(
        plan,
        scan,
        _outer_colref(outer_qual),
        ColRef(binding, "k0", inner_col.dtype_name),
        value_column=f"{binding}.val",
        output_name=output_name,
        default=default,
    )


def _unnest_count_dayal(
    builder, plan, conjunct, descriptor, pair
) -> Plan:
    """Dayal's method for ``count``: group the inner block, then an
    outer-join lookup so missing groups surface as count 0."""
    inner = descriptor.block
    inner_col, outer_qual = pair
    derived_block = BoundBlock(
        tables=inner.tables,
        conjuncts=[c for c in inner.conjuncts if not referenced_params(c)],
        select_exprs=[inner_col, inner.select_exprs[0]],
        select_names=["k0", "val"],
        aggs=inner.aggs,
        group_keys=[inner_col],
        having=inner.having,
        order_keys=[],
        limit=None,
        distinct=False,
        subqueries=inner.subqueries,
        params=[],
    )
    derived_plan = builder.build(derived_block)
    binding = builder.next_derived_binding()
    scan = DerivedScan(derived_plan, binding, ["k0", "val"])
    output_name = f"{binding}_cnt"
    lookup = LeftLookup(
        plan,
        scan,
        _outer_colref(outer_qual),
        ColRef(binding, "k0", inner_col.dtype_name),
        value_column=f"{binding}.val",
        output_name=output_name,
        default=0.0,
    )
    predicate = _replace_subquery_refs(
        conjunct, {descriptor.index: AggRef(output_name)}
    )
    return Filter(lookup, predicate)


# ---------------------------------------------------------------------------
# type-J: EXISTS
# ---------------------------------------------------------------------------


def _unnest_exists(builder, plan, conjunct, descriptor) -> Plan:
    inner = descriptor.block
    if inner.is_aggregate:
        raise UnnestingError("aggregate EXISTS subqueries are unsupported")
    _check_rewritable(inner)
    pairs = _equality_correlations(inner)
    if len(pairs) != 1:
        raise UnnestingError(
            "EXISTS unnesting requires exactly one equality correlation"
        )
    inner_col, outer_qual = pairs[0]

    key_block = BoundBlock(
        tables=inner.tables,
        conjuncts=[c for c in inner.conjuncts if not referenced_params(c)],
        select_exprs=[inner_col],
        select_names=["k0"],
        aggs=[],
        group_keys=[],
        having=None,
        order_keys=[],
        limit=None,
        distinct=False,
        subqueries=inner.subqueries,
        params=[],
    )
    # the extra GROUP BY/dedup the paper attributes to unnested Q4
    derived_plan = Distinct(builder.build(key_block))
    binding = builder.next_derived_binding()
    scan = DerivedScan(derived_plan, binding, ["k0"])

    negated = descriptor.negated
    predicate = conjunct
    while isinstance(predicate, NotOp):
        negated = not negated
        predicate = predicate.operand
    if not isinstance(predicate, SubqueryRef):
        raise UnnestingError("EXISTS must appear as a bare conjunct")
    return SemiJoin(
        plan,
        scan,
        _outer_colref(outer_qual),
        ColRef(binding, "k0", inner_col.dtype_name),
        negated=negated,
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _check_rewritable(inner: BoundBlock) -> None:
    """Refuse shapes Kim's rewrite would mis-execute at runtime.

    * A nested subquery may correlate with ``inner``'s own tables (it
      re-runs per derived-table row), but not *past* them: after the
      rewrite the outermost row no longer exists to supply the
      parameter.
    * DISTINCT aggregates would need grouped DISTINCT aggregation in
      the derived table, which the execution engine does not support.
    """
    if any(spec.distinct for spec in inner.aggs):
        raise UnnestingError(
            "DISTINCT aggregates cannot be unnested (grouped DISTINCT "
            "aggregation is unsupported) — use the nested method"
        )
    provided = {table.binding for table in inner.tables}
    for descriptor in inner.subqueries:
        for qual in descriptor.free_quals:
            if qual.rsplit(".", 1)[0] not in provided:
                raise UnnestingError(
                    f"nested subquery correlates with {qual} beyond the "
                    "immediate outer block — use the nested method"
                )


def _equality_correlations(block: BoundBlock) -> list[tuple[ColRef, str]]:
    """All ``inner_col = outer_param`` pairs; non-equality raises.

    This is the exact boundary of Kim's rewrite the paper leans on:
    change one correlation operator to ``!=`` (their Query 5) and the
    query becomes non-unnestable.
    """
    pairs: list[tuple[ColRef, str]] = []
    for conjunct in block.conjuncts:
        params = referenced_params(conjunct)
        if not params:
            continue
        if isinstance(conjunct, BoolOp):
            raise UnnestingError(
                f"disjunctive correlation {conjunct} cannot be unnested: "
                "the correlated equality only constrains one branch of "
                "the disjunction — use the nested method"
            )
        if not isinstance(conjunct, Compare):
            raise UnnestingError(
                f"correlated predicate {conjunct} is not a comparison"
            )
        if conjunct.op != "=":
            raise UnnestingError(
                f"correlation operator {conjunct.op!r} cannot be unnested "
                "(Kim's method requires equality)"
            )
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColRef) and isinstance(right, ParamRef):
            pairs.append((left, right.qual))
        elif isinstance(right, ColRef) and isinstance(left, ParamRef):
            pairs.append((right, left.qual))
        else:
            raise UnnestingError(
                f"correlated predicate {conjunct} is not column = parameter"
            )
    if not pairs:
        raise UnnestingError("no equality correlation found")
    return pairs


def _outer_colref(qual: str) -> ColRef:
    binding, column = qual.rsplit(".", 1)
    return ColRef(binding, column, "int")
