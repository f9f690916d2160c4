"""Relational operators composed from GPU primitives.

Each operator follows the paper's structure: a few primitive kernel
launches followed by a materialization into the intermediate-table
memory pool, then the inter-kernel pool is reclaimed
(:meth:`ExecutionContext.operator_done`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..gpu import kernels
from ..gpu.kernels import JoinHash
from ..plan.expressions import ColRef, PlanExpr
from ..plan.nodes import AggSpecNode
from ..storage import Column
from .exprs import evaluate
from .relation import Relation, computed_column


def scan(ctx, table_name: str, binding: str, filters: list[PlanExpr],
         env=None, columns: list[str] | None = None,
         fused: bool = False) -> Relation:
    """Scan a base table with pushed-down predicates.

    Referenced columns are moved to the device on first touch; the
    filtered result is materialised into the intermediate pool.
    ``fused=True`` charges the whole predicate chain and compaction
    tail as one fused kernel launch (rows are bit-identical).
    """
    table = ctx.catalog.table(table_name)
    names = columns if columns else table.column_names
    for name in names:
        ctx.load_column(table_name, name)
    rel = Relation.from_table(table, binding, names)
    if not filters:
        return rel
    return _select_all(ctx, rel, filters, env, fused, "fused_scan")


def filter_rel(ctx, rel: Relation, predicate: PlanExpr, env=None,
               fused: bool = False) -> Relation:
    """Selection over an intermediate relation."""
    with kernels.fused(ctx.device, "fused_filter") if fused else kernels.UNFUSED:
        result = evaluate(predicate, rel, ctx, env)
        if not isinstance(result, np.ndarray):
            if result:
                return rel
            return rel.take_no_charge(np.empty(0, dtype=np.int64))
        indices = kernels.compact(ctx.device, result)
    return _finish(ctx, rel, indices)


def filter_rel_multi(ctx, rel: Relation, predicates: list[PlanExpr],
                     env=None, fused: bool = False) -> Relation:
    """A conjunction of selections over an intermediate relation.

    Unfused, each predicate is its own selection stage (the historical
    pipeline: every stage compacts and materialises, narrowing the next
    stage's input).  Fused, every mask is evaluated over the *same*
    input width and the chain pays one fused launch, one compact and
    one materialise.  With >= 2 predicates this is the one *widening*
    fusion site (core.fusion): the extra full-width work loses once
    2*ceil(n0/Th)*K > 5*C, so the FusionTuner still measures it.
    """
    if not predicates:
        return rel
    if fused:
        return _select_all(ctx, rel, predicates, env, True, "fused_filter")
    for predicate in predicates:
        rel = filter_rel(ctx, rel, predicate, env)
    return rel


def _select_all(ctx, rel: Relation, predicates: list[PlanExpr], env,
                fused: bool, tag: str) -> Relation:
    """Keep the rows passing every predicate: one 0/1 mask, one compact.

    Passes ``rel`` through when every predicate folded to a constant
    truth (no kernel ran).  ``fused`` charges the masks and the
    compaction as one launch recorded under ``tag``.
    """
    with kernels.fused(ctx.device, tag) if fused else kernels.UNFUSED:
        mask = None
        for predicate in predicates:
            result = evaluate(predicate, rel, ctx, env)
            if not isinstance(result, np.ndarray):
                if not result:
                    mask = np.zeros(rel.num_rows, dtype=bool)
                    break
                continue
            mask = (
                result if mask is None
                else kernels.logical_and(ctx.device, mask, result)
            )
        if mask is None:
            return rel
        indices = kernels.compact(ctx.device, mask)
    return _finish(ctx, rel, indices)


def _finish(ctx, rel: Relation, indices: np.ndarray | None = None) -> Relation:
    """The operator tail: take ``indices`` of ``rel`` (all of it when
    None), materialise the result and close the operator."""
    out = rel if indices is None else rel.take_no_charge(indices)
    _materialize(ctx, out)
    ctx.operator_done()
    return out


def build_hash(ctx, rel: Relation, key: PlanExpr, env=None) -> JoinHash:
    """Build the join hash table for a relation's key expression."""
    keys = _key_array(ctx, rel, key, env)
    table = kernels.hash_build(ctx.device, keys)
    ctx.alloc_scratch(table.nbytes)
    return table


def join(
    ctx,
    left_rel: Relation,
    right_rel: Relation,
    left_key: PlanExpr,
    right_key: PlanExpr,
    env=None,
    build_side: str = "auto",
    prebuilt: JoinHash | None = None,
) -> Relation:
    """Equi hash join of two relations.

    ``build_side='auto'`` builds on the smaller input.  A ``prebuilt``
    hash table (from invariant extraction) skips the build phase; in
    that case ``build_side`` names the side the table was built on.
    """
    if build_side == "auto":
        build_side = "right" if right_rel.num_rows <= left_rel.num_rows else "left"
    if build_side == "right":
        build_rel, probe_rel = right_rel, left_rel
        build_key, probe_key = right_key, left_key
    else:
        build_rel, probe_rel = left_rel, right_rel
        build_key, probe_key = left_key, right_key

    table = prebuilt
    if table is None:
        table = build_hash(ctx, build_rel, build_key, env)
    probe_keys = _key_array(ctx, probe_rel, probe_key, env)
    probe_idx, build_idx = kernels.hash_probe(ctx.device, table, probe_keys)
    probe_out = probe_rel.take_no_charge(probe_idx)
    build_out = build_rel.take_no_charge(build_idx)
    out = probe_out.merged(build_out)
    # the paper materialises left- and right-side columns with separate
    # kernels (Eq. 4) — charge them separately
    _materialize(ctx, probe_out)
    _materialize(ctx, build_out)
    ctx.operator_done()
    return out


def cross_join(ctx, left_rel: Relation, right_rel: Relation) -> Relation:
    """Cartesian product (paper Figure 5's both-sides-correlated case)."""
    n_left, n_right = left_rel.num_rows, right_rel.num_rows
    total = n_left * n_right
    ctx.device.launch("cross_join", total)
    left_idx = np.repeat(np.arange(n_left), n_right)
    right_idx = np.tile(np.arange(n_right), n_left)
    return _finish(ctx, left_rel.take_no_charge(left_idx).merged(
        right_rel.take_no_charge(right_idx)
    ))


def semi_join(
    ctx,
    outer_rel: Relation,
    inner_rel: Relation,
    outer_key: PlanExpr,
    inner_key: PlanExpr,
    negated: bool = False,
    env=None,
    prebuilt: JoinHash | None = None,
) -> Relation:
    """(Anti-)semi-join: keep outer rows with (no) inner match."""
    table = prebuilt
    if table is None:
        table = build_hash(ctx, inner_rel, inner_key, env)
    outer_keys = _key_array(ctx, outer_rel, outer_key, env)
    mask = kernels.semi_probe(ctx.device, table, outer_keys)
    if negated:
        mask = kernels.logical_not(ctx.device, mask)
    return _finish(ctx, outer_rel, kernels.compact(ctx.device, mask))


def left_lookup(
    ctx,
    child: Relation,
    inner: Relation,
    outer_key: PlanExpr,
    inner_key: PlanExpr,
    value_column: str,
    output_name: str,
    default: float = 0.0,
    env=None,
) -> Relation:
    """Outer-join lookup: append ``inner``'s value column to ``child``
    by an equi-key, with ``default`` where no inner row matches.

    This is the engine half of Dayal-style unnesting for correlated
    ``count`` subqueries: missing groups must surface as count 0, which
    Kim's inner join cannot produce (the classic count bug).
    """
    inner_keys = _key_array(ctx, inner, inner_key, env)
    table = kernels.hash_build(ctx.device, inner_keys)
    outer_keys = _key_array(ctx, child, outer_key, env)
    ctx.device.launch("left_lookup", child.num_rows, work=2.0)
    lo, counts = table.ranges(outer_keys)
    matched = np.flatnonzero(counts)
    values = np.full(child.num_rows, default, dtype=np.float64)
    source = inner.column(value_column).data
    values[matched] = source[table.order[lo[matched]]]
    return _finish(ctx, child.with_columns(
        {output_name: computed_column(output_name, values)}
    ))


def aggregate(
    ctx,
    rel: Relation,
    groups: list[PlanExpr],
    aggs: list[AggSpecNode],
    having: PlanExpr | None = None,
    env=None,
) -> Relation:
    """Aggregation; scalar (1-row) when ``groups`` is empty.

    Empty-input scalar aggregates yield NaN (SQL NULL) for
    min/max/sum/avg and 0 for count, so predicates over the result
    behave like three-valued SQL logic.
    """
    if groups:
        out = _grouped_aggregate(ctx, rel, groups, aggs, env)
    else:
        out = _scalar_aggregate(ctx, rel, aggs, env)
    if having is not None:
        return filter_rel(ctx, out, having, env)
    return _finish(ctx, out)


def _scalar_aggregate(ctx, rel: Relation, aggs: list[AggSpecNode], env) -> Relation:
    columns: dict[str, Column] = {}
    for spec in aggs:
        if spec.op == "count" and spec.arg is None:
            value = float(rel.num_rows)
        else:
            arg = evaluate(spec.arg, rel, ctx, env)
            if not isinstance(arg, np.ndarray):
                arg = np.full(rel.num_rows, arg, dtype=np.float64)
            if spec.distinct:
                arg = np.unique(arg)
                ctx.device.launch("distinct", len(arg))
            if rel.num_rows == 0 and spec.op != "count":
                value = np.nan
            else:
                value = kernels.reduce_full(ctx.device, arg, spec.op)
        columns[spec.name] = computed_column(spec.name, np.array([value]))
    return Relation(columns, 1)


def _grouped_aggregate(
    ctx, rel: Relation, groups: list[PlanExpr], aggs: list[AggSpecNode], env
) -> Relation:
    key_arrays = []
    for key in groups:
        data = evaluate(key, rel, ctx, env)
        if not isinstance(data, np.ndarray):
            data = np.full(rel.num_rows, data)
        key_arrays.append(data)
    gids, reps = kernels.group_ids(ctx.device, key_arrays)
    num_groups = len(reps)
    columns: dict[str, Column] = {}
    for key in groups:
        if isinstance(key, ColRef):
            columns[key.qual] = rel.column(key.qual).take(reps)
        else:
            raise ExecutionError("GROUP BY supports plain columns only")
    for spec in aggs:
        if spec.op == "count" and spec.arg is None:
            values, _ = kernels.segmented_reduce(
                ctx.device, None, gids, num_groups, "count"
            )
        else:
            arg = evaluate(spec.arg, rel, ctx, env)
            if not isinstance(arg, np.ndarray):
                arg = np.full(rel.num_rows, arg, dtype=np.float64)
            if spec.distinct:
                raise ExecutionError("grouped DISTINCT aggregates are unsupported")
            values, _ = kernels.segmented_reduce(
                ctx.device, arg.astype(np.float64), gids, num_groups, spec.op
            )
        columns[spec.name] = computed_column(spec.name, values)
    return Relation(columns, num_groups)


def project(ctx, rel: Relation, exprs: list[PlanExpr], names: list[str]) -> Relation:
    """Final projection to bare output names."""
    columns: dict[str, Column] = {}
    for expr, name in zip(exprs, names):
        if isinstance(expr, ColRef):
            columns[name] = rel.column(expr.qual).renamed(name)
            continue
        from ..plan.expressions import AggRef

        if isinstance(expr, AggRef):
            columns[name] = rel.column(expr.name).renamed(name)
            continue
        data = evaluate(expr, rel, ctx, None)
        if not isinstance(data, np.ndarray):
            data = np.full(rel.num_rows, data, dtype=np.float64)
        columns[name] = computed_column(name, data)
    return Relation(columns, rel.num_rows)


def distinct(ctx, rel: Relation) -> Relation:
    """Drop duplicate rows."""
    if rel.num_rows == 0:
        return rel
    arrays = [col.data for col in rel.columns.values()]
    _, reps = kernels.group_ids(ctx.device, arrays)
    return _finish(ctx, rel, np.sort(reps))


def sort(ctx, rel: Relation, keys: list[str], descending: list[bool]) -> Relation:
    """Order by named output columns."""
    if rel.num_rows == 0:
        return rel
    key_arrays = [rel.column(k).data for k in keys]
    return _finish(
        ctx, rel, kernels.sort_order(ctx.device, key_arrays, descending)
    )


def limit(ctx, rel: Relation, count: int) -> Relation:
    indices = np.arange(min(count, rel.num_rows))
    return rel.take_no_charge(indices)


def fetch_result(ctx, rel: Relation) -> Relation:
    """Charge the device-to-host transfer of the final result."""
    ctx.device.transfer_d2h(rel.nbytes)
    return rel


def _materialize(ctx, rel: Relation) -> None:
    """Charge materialization (Eq. 1's M term) and pool space."""
    nbytes = rel.nbytes
    ctx.device.materialize(nbytes)
    ctx.alloc_intermediate(nbytes)


def _key_array(ctx, rel: Relation, key: PlanExpr, env) -> np.ndarray:
    data = evaluate(key, rel, ctx, env)
    if not isinstance(data, np.ndarray):
        data = np.full(rel.num_rows, data)
    return data
