"""Vectorized subquery evaluation (paper Section III-D, "Vectorization").

A single subquery iteration often produces intermediate data far too
small to occupy the GPU.  NestGPU fuses the kernels of many iterations:
a whole *batch* of outer parameter tuples is evaluated in one pass by
carrying a segment id per row — the iteration a row belongs to — and
finishing with segmented reductions.  One fused launch replaces ``B``
tiny launches, which is exactly where the batched path wins in the
ablation bench.

The evaluator walks only the *transient* spine of the subquery plan;
invariant subtrees and hoisted hash tables come pre-computed from the
:class:`~repro.core.runtime.SubqueryProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..gpu import kernels
from ..engine import operators as ops
from ..engine.evaluator import run_operator
from ..engine.exprs import evaluate
from ..engine.relation import Relation, computed_column
from ..plan.expressions import (
    ColRef,
    Compare,
    ParamRef,
    PlanExpr,
    referenced_params,
)
from ..plan.nodes import (
    Aggregate,
    Filter,
    Join,
    Plan,
    Project,
    Scan,
    SubqueryFilter,
)


@dataclass
class SegRelation:
    """A relation whose rows are partitioned across batch segments."""

    rel: Relation
    seg: np.ndarray
    num_segments: int


def can_vectorize(plan: Plan, info) -> bool:
    """Whether the batched path supports this subquery plan.

    Requirements: the transient region contains only scans, filters,
    joins, one group-less aggregate and projections; every correlated
    scan predicate is an equality against a single parameter.  Plans
    outside this shape run the per-iteration loop instead.
    """
    saw_aggregate = False
    for node in plan.walk():
        if not info.is_transient(node):
            continue
        if isinstance(node, SubqueryFilter):
            return False
        if isinstance(node, Aggregate):
            if node.groups or saw_aggregate:
                return False
            saw_aggregate = True
        elif isinstance(node, Scan):
            for predicate in node.filters:
                if not referenced_params(predicate):
                    continue
                if _equality_correlation(predicate) is None:
                    return False
        elif not isinstance(node, (Filter, Join, Project)):
            return False
    return True


def _equality_correlation(predicate: PlanExpr):
    """Match ``col = $param`` -> (ColRef, qual); None otherwise."""
    if not isinstance(predicate, Compare) or predicate.op != "=":
        return None
    left, right = predicate.left, predicate.right
    if isinstance(left, ColRef) and isinstance(right, ParamRef):
        return left, right.qual
    if isinstance(right, ColRef) and isinstance(left, ParamRef):
        return right, left.qual
    return None


def run_batch(sp, batch: dict[str, np.ndarray]):
    """Evaluate the subquery for a batch of parameter tuples.

    Args:
        sp: the :class:`~repro.core.runtime.SubqueryProgram`.
        batch: qual -> array of B parameter values.

    Returns:
        ``(values, valid)`` arrays of length B for scalar subqueries,
        a boolean array for EXISTS, or ``(values, seg)`` for IN.
    """
    num_segments = len(next(iter(batch.values())))
    result = _eval(sp, sp.plan, batch, num_segments)
    descriptor = sp.descriptor
    if descriptor.kind == "exists":
        seg_rel = _require_seg(result)
        return kernels.segmented_any(
            sp.ctx.device, seg_rel.seg, num_segments
        )
    if descriptor.kind == "in":
        seg_rel = _require_seg(result)
        column = seg_rel.rel.first_column()
        return column.data.astype(np.float64), seg_rel.seg
    # scalar: the root produced one row per segment
    if isinstance(result, _PerSegment):
        return result.values, result.valid
    raise ExecutionError("scalar subquery did not reduce to per-segment values")


@dataclass
class _PerSegment:
    """Per-segment scalars flowing above the aggregate."""

    rel: Relation  # length num_segments
    values: np.ndarray
    valid: np.ndarray


def _require_seg(result) -> SegRelation:
    if isinstance(result, SegRelation):
        return result
    raise ExecutionError("vectorized evaluation expected a segmented relation")


def _eval(sp, node: Plan, batch, num_segments):
    profile = sp.ctx.profile_node_ns
    if profile is None:
        return _eval_node(sp, node, batch, num_segments)
    # profiling: attribute each node's *exclusive* modelled time, using
    # a child-time side channel across the recursion (the device clock
    # only gives inclusive deltas)
    ctx = sp.ctx
    stats = ctx.device.stats
    before = stats.total_ns
    saved_children = ctx._profile_child_ns
    ctx._profile_child_ns = 0.0
    try:
        result = _eval_node(sp, node, batch, num_segments)
    finally:
        inclusive = stats.total_ns - before
        exclusive = inclusive - ctx._profile_child_ns
        profile[id(node)] = profile.get(id(node), 0.0) + exclusive
        ctx._profile_child_ns = saved_children + inclusive
    return result


def _eval_node(sp, node: Plan, batch, num_segments):
    if not sp.info.is_transient(node):
        return sp.invariant_relation(node)
    if isinstance(node, Scan):
        return _eval_scan(sp, node, batch, num_segments)
    if isinstance(node, Filter):
        return _eval_filter(sp, node, batch, num_segments)
    if isinstance(node, Join):
        return _eval_join(sp, node, batch, num_segments)
    if isinstance(node, Aggregate):
        return _eval_aggregate(sp, node, batch, num_segments)
    if isinstance(node, Project):
        return _eval_project(sp, node, batch, num_segments)
    raise ExecutionError(f"vectorized path cannot execute {node!r}")


def _seg_env(batch, seg: np.ndarray) -> dict[str, np.ndarray]:
    """Row-aligned parameter arrays for a segmented relation."""
    return {qual: values[seg] for qual, values in batch.items()}


def _eval_scan(sp, node: Scan, batch, num_segments) -> SegRelation:
    """Correlated selection over a pre-filtered base relation.

    The equality against the parameter is answered through the
    node-local sorted index when indexing is enabled (one fused
    binary-search kernel for the whole batch); otherwise the device is
    charged for B full scans fused into one launch of B*N work.
    """
    base = sp.base_relation(node)
    correlated = [f for f in node.filters if referenced_params(f)]
    primary = _equality_correlation(correlated[0])
    assert primary is not None, "can_vectorize guarantees equality correlation"
    key_col, qual = primary
    params = batch[qual]

    device = sp.ctx.device
    index = sp.scan_index(node, base, key_col)
    # unindexed: one kernel doing B scans over the base; with the fusion
    # pass on, the remaining correlated predicates join it in one fused
    # launch (the index fast path already beats any fusion of the scan)
    scope = device.begin_fused("fused_scan") if sp.fused and index is None else None
    try:
        if index is not None:
            sp.ctx.index_probes += len(params)
            rows, seg = index.lookup_batch(device, params)
        else:
            device.launch("scan_compare", base.num_rows * len(params))
            table = sp.scan_table(node, base.column(key_col.qual).data)
            seg, positions, _ = kernels.expand_ranges(*table.ranges(params))
            rows = table.order[positions]
        rel = base.take_no_charge(rows)
        ops._materialize(sp.ctx, rel)
        out = SegRelation(rel, seg, num_segments)
        # remaining correlated predicates (composite correlations)
        for predicate in correlated[1:]:
            out = _apply_seg_filter(sp, out, predicate, batch)
    finally:
        device.end_fused(scope)
    sp.ctx.operator_done()
    return out


def _apply_seg_filter(sp, seg_rel: SegRelation, predicate, batch) -> SegRelation:
    """One segmented filter stage; fused internally when ``sp.fused``
    (the predicate tree and its compaction collapse into one launch —
    or into an enclosing fused scope, since nested scopes flatten)."""
    env = _seg_env(batch, seg_rel.seg)
    device = sp.ctx.device
    scope = device.begin_fused("fused_filter") if sp.fused else None
    try:
        mask = evaluate(predicate, seg_rel.rel, sp.ctx, env)
        if not isinstance(mask, np.ndarray):
            if mask:
                return seg_rel
            empty = np.empty(0, dtype=np.int64)
            return SegRelation(
                seg_rel.rel.take_no_charge(empty), seg_rel.seg[empty],
                seg_rel.num_segments,
            )
        indices = kernels.compact(device, mask)
    finally:
        device.end_fused(scope)
    rel = seg_rel.rel.take_no_charge(indices)
    ops._materialize(sp.ctx, rel)
    return SegRelation(rel, seg_rel.seg[indices], seg_rel.num_segments)


def _eval_filter(sp, node: Filter, batch, num_segments) -> SegRelation:
    child = _eval(sp, node.child, batch, num_segments)
    seg_rel = _as_segmented(child, num_segments)
    out = _apply_seg_filter(sp, seg_rel, node.predicate, batch)
    sp.ctx.operator_done()
    return out


def _eval_join(sp, node: Join, batch, num_segments) -> SegRelation:
    left = _eval(sp, node.left, batch, num_segments)
    right = _eval(sp, node.right, batch, num_segments)
    left_seg = isinstance(left, SegRelation)
    right_seg = isinstance(right, SegRelation)
    device = sp.ctx.device

    if left_seg != right_seg:
        # hoisted case: hash the invariant side once, probe per batch
        if left_seg:
            probe, build_rel = left, right
            probe_key, invariant_key = node.left_key, node.right_key
        else:
            probe, build_rel = right, left
            probe_key, invariant_key = node.right_key, node.left_key
        table = sp.hoisted_hash(node, build_rel, invariant_key)
        probe_keys = evaluate(probe_key, probe.rel, sp.ctx, _seg_env(batch, probe.seg))
    elif left_seg:
        # both transient: join within segments via composite keys
        left_keys = evaluate(node.left_key, left.rel, sp.ctx, _seg_env(batch, left.seg))
        right_keys = evaluate(node.right_key, right.rel, sp.ctx, _seg_env(batch, right.seg))
        probe, build_rel = left, right.rel
        probe_keys = left_keys.astype(np.int64) * num_segments + left.seg
        table = kernels.hash_build(
            device, right_keys.astype(np.int64) * num_segments + right.seg
        )
    else:
        raise ExecutionError("join of two invariant children should be invariant")
    probe_idx, build_idx = kernels.hash_probe(device, table, probe_keys)
    out_rel = probe.rel.take_no_charge(probe_idx).merged(
        build_rel.take_no_charge(build_idx)
    )
    ops._materialize(sp.ctx, out_rel)
    sp.ctx.operator_done()
    return SegRelation(out_rel, probe.seg[probe_idx], num_segments)


def _as_segmented(result, num_segments) -> SegRelation:
    if isinstance(result, SegRelation):
        return result
    # an invariant relation entering a transient filter: every segment
    # sees the same rows — replicate lazily via tiling of segment ids
    rel = result
    reps = np.repeat(np.arange(num_segments), rel.num_rows)
    tiled = np.tile(np.arange(rel.num_rows), num_segments)
    return SegRelation(rel.take_no_charge(tiled), reps, num_segments)


def _eval_aggregate(sp, node: Aggregate, batch, num_segments) -> _PerSegment:
    child = _eval(sp, node.child, batch, num_segments)
    seg_rel = _as_segmented(child, num_segments)
    device = sp.ctx.device
    env = _seg_env(batch, seg_rel.seg)
    columns = {}
    valid = None
    for spec in node.aggs:
        if spec.op == "count" and spec.arg is None:
            values, counts = kernels.segmented_reduce(
                device, None, seg_rel.seg, num_segments, "count"
            )
        else:
            arg = evaluate(spec.arg, seg_rel.rel, sp.ctx, env)
            if not isinstance(arg, np.ndarray):
                arg = np.full(seg_rel.rel.num_rows, arg, dtype=np.float64)
            values, counts = kernels.segmented_reduce(
                device, arg.astype(np.float64), seg_rel.seg, num_segments, spec.op
            )
        if spec.op == "count":
            spec_valid = np.ones(num_segments, dtype=bool)
        else:
            spec_valid = counts > 0
            # SQL NULL for empty groups: the reduction identities (0 for
            # sum, +/-inf for min/max) must not leak into comparisons
            values = values.copy()
            values[~spec_valid] = np.nan
        valid = spec_valid if valid is None else (valid & spec_valid)
        columns[spec.name] = computed_column(spec.name, values)
    rel = Relation(columns, num_segments)
    ops._materialize(sp.ctx, rel)
    sp.ctx.operator_done()
    return _PerSegment(rel, values, valid)


def _eval_project(sp, node: Project, batch, num_segments):
    child = _eval(sp, node.child, batch, num_segments)
    if isinstance(child, _PerSegment):
        # scalar subquery: evaluate the (single) output expression over
        # the per-segment aggregate relation
        if len(node.exprs) != 1:
            raise ExecutionError("scalar subquery must project one column")
        data = evaluate(node.exprs[0], child.rel, sp.ctx, None)
        if not isinstance(data, np.ndarray):
            data = np.full(num_segments, data, dtype=np.float64)
        return _PerSegment(child.rel, data.astype(np.float64), child.valid)
    seg_rel = _as_segmented(child, num_segments)
    out = run_operator(sp.ctx, node, (seg_rel.rel,))
    return SegRelation(out, seg_rel.seg, num_segments)
