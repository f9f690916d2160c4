"""The cost model (paper Section IV, Eqs. 1-9).

Two halves:

* **Analytic operator costs** — Eq. (1) for scans/aggregations and
  Eqs. (2)-(5) for hash joins, parameterised by the device spec
  (``K_i`` = per-thread-iteration time, ``C`` = launch constant,
  ``M`` = per-byte materialization, ``Th`` = thread count).  These are
  exact *given* cardinalities; prediction error comes from estimating
  ``Dr`` (filter selectivity, join matches).
* **Nested-query prediction** — Eq. (6)-(9): the outer block ``U`` is
  measured directly (it must run anyway), invariant hoisting is
  measured once, and the loop body ``N`` is extrapolated from a few
  probed iterations ("execution islands", [43] in the paper), scaled
  by ``S - Ch`` where ``Ch`` counts the cache hits implied by
  duplicate parameters.

``predict_paths`` puts the nested prediction next to an analytic
estimate of the unnested plan; ``NestGPU.prepare`` picks the cheaper —
the optimizer integration the paper describes at the end of Section IV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..engine import ExecutionContext
from ..engine.evaluator import run_plan
from ..gpu import Device, DeviceSpec
from ..plan.expressions import ColRef
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
from .runtime import Runtime, SubqueryProgram
from .subquery import ExistsResultVector, ScalarResultVector


# ---------------------------------------------------------------------------
# Eq. (1)-(5): analytic operator costs
# ---------------------------------------------------------------------------


def _kernel_ns(spec: DeviceSpec, elements: float, work: float = 1.0) -> float:
    """One kernel: C + ceil(D/Th) * K * work (Eq. 1, first term)."""
    iterations = math.ceil(elements / spec.threads) if elements > 0 else 0
    return spec.launch_overhead_ns + iterations * spec.iteration_ns * work


def _log_work(n: float) -> float:
    return max(1.0, math.log2(n)) if n > 1 else 1.0


def selection_cost_ns(
    spec: DeviceSpec,
    input_rows: float,
    num_predicates: int,
    output_rows: float,
    row_bytes: float,
    fused: bool = False,
) -> float:
    """Eq. (1) for a selection: predicate scans, prefix-sum, scatter,
    then materialization of the qualifying rows.

    ``fused=True`` is the analytic twin of the fusion pass
    (core.fusion): the same iteration work, but one launch constant
    instead of one per primitive.
    """
    scans = max(1, num_predicates)
    ands = max(0, num_predicates - 1)
    if fused:
        work = scans + ands + _log_work(input_rows) + 1.0
        cost = _kernel_ns(spec, input_rows, work)
        cost += output_rows * row_bytes * spec.materialize_ns_per_byte
        return cost
    cost = 0.0
    for _ in range(scans):
        cost += _kernel_ns(spec, input_rows)
    cost += ands * _kernel_ns(spec, input_rows)  # AND kernels
    cost += _kernel_ns(spec, input_rows, _log_work(input_rows))  # prefix sum
    cost += _kernel_ns(spec, input_rows)  # scatter
    cost += output_rows * row_bytes * spec.materialize_ns_per_byte
    return cost


def join_cost_ns(
    spec: DeviceSpec,
    build_rows: float,
    probe_rows: float,
    match_rows: float,
    probe_row_bytes: float,
    build_row_bytes: float,
    include_build: bool = True,
) -> float:
    """Eqs. (2)-(5): hash build + probe + two-sided materialization.

    ``include_build=False`` models a hoisted hash table (built once
    outside the loop, Eq. 6 moves ``Tjh`` out of the iteration term).
    """
    cost = 0.0
    if include_build:
        cost += _kernel_ns(spec, build_rows, 2.0)  # Tjh
    cost += _kernel_ns(spec, probe_rows, 2.0)  # Tjp
    cost += _kernel_ns(spec, match_rows)  # expansion
    # Tjm: left and right sides materialised by separate kernels
    cost += match_rows * probe_row_bytes * spec.materialize_ns_per_byte
    cost += match_rows * build_row_bytes * spec.materialize_ns_per_byte
    return cost


def aggregate_cost_ns(
    spec: DeviceSpec, input_rows: float, num_aggs: int, output_rows: float = 1.0
) -> float:
    """Eq. (1) for (segmented) reductions."""
    cost = 0.0
    for _ in range(max(1, num_aggs)):
        cost += _kernel_ns(spec, input_rows, _log_work(input_rows))
    cost += output_rows * 8.0 * num_aggs * spec.materialize_ns_per_byte
    return cost


def sort_cost_ns(spec: DeviceSpec, rows: float, row_bytes: float) -> float:
    cost = _kernel_ns(spec, rows, _log_work(rows) * 2.0)
    cost += rows * row_bytes * spec.materialize_ns_per_byte
    return cost


# ---------------------------------------------------------------------------
# exchange costs (multi-device plans)
# ---------------------------------------------------------------------------


def repartition_cost_ns(
    interconnect, shards: int, total_bytes: float
) -> float:
    """Hash-redistributing a table across ``shards`` over peer links.

    With uniformly hashed keys, ``(N-1)/N`` of the table crosses links
    and each shard exchanges with ``N-1`` peers; per-shard critical
    path is its outgoing traffic plus the per-peer message latencies.
    """
    if shards <= 1:
        return 0.0
    moved = total_bytes * (shards - 1) / shards
    per_shard = moved / shards
    link = interconnect.link(0, 1 % shards)
    return (shards - 1) * link.latency_ns + per_shard / link.bytes_per_ns


def gather_cost_ns(interconnect, shards: int, total_bytes: float) -> float:
    """Collecting per-shard partials onto the coordinator's links."""
    if shards <= 1:
        return 0.0
    incoming = total_bytes * (shards - 1) / shards
    link = interconnect.link(1 % shards, 0)
    return (shards - 1) * link.latency_ns + incoming / link.bytes_per_ns


# ---------------------------------------------------------------------------
# analytic estimation of a flat plan (for the unnested alternative)
# ---------------------------------------------------------------------------


@dataclass
class _Estimate:
    rows: float
    row_bytes: float
    cost_ns: float


def estimate_flat_plan_ns(
    catalog, spec: DeviceSpec, plan: Plan, selectivity=None,
    fused: bool = False,
) -> float:
    """Walk a flat plan, estimating cardinalities and summing Eq. (1)-(5).

    ``spec`` may be a :class:`~repro.gpu.spec.DeviceSpec` or a fitted
    :class:`~repro.core.calibrator.CostCoefficients` — the cost
    functions read the same attributes from either.  ``selectivity``
    optionally injects the engine's shared exact-selectivity estimator.
    """
    from ..plan.builder import PlanBuilder

    # reuse the builder's selectivity machinery (exact when available)
    builder = PlanBuilder(catalog, exact_selectivity=selectivity)

    def walk(node: Plan) -> _Estimate:
        if isinstance(node, Scan):
            table = catalog.table(node.table)
            columns = node.columns or table.column_names
            row_bytes = sum(table.column(c).dtype.width for c in columns)
            rows = float(table.num_rows)
            cost = table.num_rows * row_bytes / spec.pcie_bytes_per_ns  # load
            selectivity = 1.0
            for predicate in node.filters:
                selectivity *= builder._selectivity(predicate, node.table)
            out = max(1.0, rows * selectivity)
            if node.filters:
                cost += selection_cost_ns(
                    spec, rows, len(node.filters), out, row_bytes, fused=fused
                )
                rows = out
            return _Estimate(rows, row_bytes, cost)
        if isinstance(node, DerivedScan):
            return walk(node.plan)
        if isinstance(node, CrossJoin):
            left = walk(node.left)
            right = walk(node.right)
            matches = left.rows * right.rows
            cost = left.cost_ns + right.cost_ns + _kernel_ns(spec, matches)
            row_bytes = left.row_bytes + right.row_bytes
            cost += matches * row_bytes * spec.materialize_ns_per_byte
            return _Estimate(matches, row_bytes, cost)
        if isinstance(node, Join):
            left = walk(node.left)
            right = walk(node.right)
            matches = _join_matches(catalog, node, left.rows, right.rows)
            build, probe = (right, left) if right.rows <= left.rows else (left, right)
            cost = left.cost_ns + right.cost_ns + join_cost_ns(
                spec, build.rows, probe.rows, matches, probe.row_bytes, build.row_bytes
            )
            return _Estimate(matches, left.row_bytes + right.row_bytes, cost)
        if isinstance(node, SemiJoin):
            child = walk(node.child)
            inner = walk(node.inner)
            cost = child.cost_ns + inner.cost_ns
            cost += _kernel_ns(spec, inner.rows, 2.0)
            cost += _kernel_ns(spec, child.rows, 2.0)
            out = max(1.0, child.rows * 0.5)
            cost += out * child.row_bytes * spec.materialize_ns_per_byte
            return _Estimate(out, child.row_bytes, cost)
        if isinstance(node, LeftLookup):
            # outer-join lookup (SELECT-list / Dayal count unnesting):
            # hash build over the inner, one probe per child row, every
            # child row kept and widened by the value column
            child = walk(node.child)
            inner = walk(node.inner)
            row_bytes = child.row_bytes + 8.0
            cost = child.cost_ns + inner.cost_ns
            cost += _kernel_ns(spec, inner.rows, 2.0)
            cost += _kernel_ns(spec, child.rows, 2.0)
            cost += child.rows * row_bytes * spec.materialize_ns_per_byte
            return _Estimate(child.rows, row_bytes, cost)
        if isinstance(node, SubqueryColumn):
            # uncorrelated SELECT-list scalar: inner evaluated once,
            # broadcast across every child row
            child = walk(node.child)
            inner_plan = getattr(node, "inner_plan", None)
            inner_cost = walk(inner_plan).cost_ns if inner_plan is not None else 0.0
            cost = child.cost_ns + inner_cost + _kernel_ns(spec, child.rows)
            return _Estimate(child.rows, child.row_bytes + 8.0, cost)
        if isinstance(node, Filter):
            child = walk(node.child)
            out = max(1.0, child.rows * 0.3)
            cost = child.cost_ns + selection_cost_ns(
                spec, child.rows, 1, out, child.row_bytes, fused=fused
            )
            return _Estimate(out, child.row_bytes, cost)
        if isinstance(node, SubqueryFilter):
            # uncorrelated: inner evaluated once
            child = walk(node.child)
            inner_plan = getattr(node, "inner_plan", None)
            inner_cost = walk(inner_plan).cost_ns if inner_plan is not None else 0.0
            out = max(1.0, child.rows * 0.3)
            cost = child.cost_ns + inner_cost + selection_cost_ns(
                spec, child.rows, 1, out, child.row_bytes, fused=fused
            )
            return _Estimate(out, child.row_bytes, cost)
        if isinstance(node, Aggregate):
            child = walk(node.child)
            if node.groups:
                out = _group_estimate(catalog, node, child.rows)
                cost = child.cost_ns + sort_cost_ns(spec, child.rows, 16.0)
                cost += aggregate_cost_ns(spec, child.rows, len(node.aggs), out)
            else:
                out = 1.0
                cost = child.cost_ns + aggregate_cost_ns(
                    spec, child.rows, len(node.aggs)
                )
            return _Estimate(out, 8.0 * (len(node.groups) + len(node.aggs)), cost)
        if isinstance(node, Project):
            child = walk(node.child)
            return _Estimate(child.rows, 8.0 * len(node.exprs), child.cost_ns)
        if isinstance(node, Distinct):
            child = walk(node.child)
            cost = child.cost_ns + sort_cost_ns(spec, child.rows, child.row_bytes)
            return _Estimate(max(1.0, child.rows * 0.5), child.row_bytes, cost)
        if isinstance(node, Sort):
            child = walk(node.child)
            cost = child.cost_ns + sort_cost_ns(spec, child.rows, child.row_bytes)
            return _Estimate(child.rows, child.row_bytes, cost)
        if isinstance(node, Limit):
            child = walk(node.child)
            return _Estimate(min(child.rows, node.count), child.row_bytes, child.cost_ns)
        raise ValueError(f"cannot estimate node {node!r}")

    return walk(plan).cost_ns


def _join_matches(catalog, node: Join, left_rows: float, right_rows: float) -> float:
    """FK-join heuristic: output ~ the larger (probe) side."""
    return max(left_rows, right_rows)


def _group_estimate(catalog, node: Aggregate, input_rows: float) -> float:
    key = node.groups[0]
    if isinstance(key, ColRef):
        return max(1.0, min(input_rows, input_rows * 0.25))
    return max(1.0, input_rows * 0.1)


# ---------------------------------------------------------------------------
# Eq. (6)-(9): predicting a nested execution
# ---------------------------------------------------------------------------


@dataclass
class NestedPrediction:
    """Breakdown of a predicted nested execution (all ms of device time)."""

    outer_ms: float  # U: the outer block up to the SUBQ filter
    hoist_ms: float  # invariant extraction + index build, paid once
    loop_ms: float  # N: (S - Ch) iterations (or batches)
    upper_ms: float  # operators above the SUBQ filter (estimated)
    iterations: int  # S
    cache_hits: int  # Ch
    probed: int

    @property
    def total_ms(self) -> float:
        return self.outer_ms + self.hoist_ms + self.loop_ms + self.upper_ms


def predict_nested(
    system, prepared, probe_iterations: int = 4, index_cache=None,
) -> NestedPrediction:
    """Predict the nested execution time of a prepared query.

    Runs the outer flat block and the invariant extraction for real
    (they must run in any case), probes a few subquery iterations
    ("execution islands"), and extrapolates Eq. (6).  It reads a copy of
    a session's ``index_cache`` and publishes nothing to it.
    """
    device = Device(system.device_spec)
    ctx = ExecutionContext(system.catalog, device, system.options,
                           index_cache=dict(index_cache or ()))

    subquery_filters = [
        node for node in prepared.plan.walk() if isinstance(node, SubqueryFilter)
    ]
    correlated = [
        node for node in subquery_filters
        if node.descriptor is not None and node.descriptor.is_correlated
    ]
    if len(correlated) == 1 and len(correlated[0].descriptors) != 1:
        correlated = []  # quantified predicate: fall back to a full run
    if len(correlated) == 1:
        body = next(
            (spec.plan for spec in prepared.program.specs
             if spec.descriptor is correlated[0].descriptor), None)
        if body is None or any(
            isinstance(n, (SubqueryFilter, SubqueryColumn)) for n in body.walk()
        ):
            # depth-2 nesting: the island probe walks the body plan
            # directly and cannot execute a nested SUBQ node — measure
            # the whole execution instead
            correlated = []
    if len(correlated) != 1:
        # flat query, or stacked subqueries: measure by running in full
        # (observed=False keeps this probe out of traces and metrics)
        result = system.run_prepared(prepared, observed=False)
        return NestedPrediction(
            outer_ms=result.stats.total_ms, hoist_ms=0.0, loop_ms=0.0,
            upper_ms=0.0, iterations=0, cache_hits=0, probed=0,
        )
    target = correlated[0]

    # U — the outer flat part (measured, it has to run anyway)
    outer_rel = run_plan(ctx, target.child)
    outer_ms = device.stats.total_ms
    iterations = outer_rel.num_rows

    spec_entry = next(
        spec for spec in prepared.program.specs
        if spec.descriptor is target.descriptor
    )
    # the probe always runs unfused, even for a fused program: path
    # prediction is structure-preserving (see predict_paths) and the
    # unfused time is a safe upper bound on the fused run
    sp = SubqueryProgram(ctx, spec_entry.descriptor, spec_entry.plan,
                         system.options.vector_batch)
    runtime = Runtime(ctx, prepared.program.nodes, [sp])

    corr = runtime.correlated_values(sp, outer_rel)
    keys = list(zip(*(corr[q].tolist() for q in sp.param_quals)))
    unique = len(set(keys))
    cache_hits = iterations - unique if system.options.use_cache else 0
    effective = iterations - cache_hits  # S - Ch

    # hoisting: invariants, hash tables, index build (paid once)
    before = device.stats.total_ms
    sp.eval_invariants(iterations)
    _touch_transient_support(runtime, sp)
    hoist_ms = device.stats.total_ms - before

    # islands: probe a few iterations / one batch, then extrapolate
    probed_keys = list(dict.fromkeys(keys))[: max(1, probe_iterations)]
    if sp.vectorized:
        batch_rows = min(sp.batch_size, effective)
        vector = (
            ExistsResultVector(batch_rows)
            if sp.descriptor.kind == "exists"
            else ScalarResultVector(batch_rows)
        )
        before = device.stats.total_ms
        runtime.run_vector_batch(sp, corr, 0, batch_rows, vector)
        batch_ms = device.stats.total_ms - before
        batches = math.ceil(effective / sp.batch_size)
        loop_ms = batch_ms * batches
        probed = batch_rows
    else:
        before = device.stats.total_ms
        marks = runtime.mark_pools()
        for key in probed_keys:
            env = dict(zip(sp.param_quals, key))
            runtime.run_iteration(sp, env)
            runtime.restore_pools(marks)
        probe_ms = device.stats.total_ms - before
        per_iteration = probe_ms / max(1, len(probed_keys))
        loop_ms = per_iteration * effective
        probed = len(probed_keys)

    # operators above the SUBQ filter: analytic with a coarse Dr
    upper_ns = _estimate_upper(system, prepared.plan, target, iterations)
    return NestedPrediction(
        outer_ms=outer_ms,
        hoist_ms=hoist_ms,
        loop_ms=loop_ms,
        upper_ms=upper_ns / 1e6,
        iterations=iterations,
        cache_hits=cache_hits,
        probed=probed,
    )


def _touch_transient_support(runtime: Runtime, sp: SubqueryProgram) -> None:
    """Force base relations, hoisted hashes and indexes to build now,
    so their cost lands in the hoist term rather than the first probe."""
    from ..plan.expressions import referenced_params
    from . import vectorize

    for node in sp.plan.walk():
        if not sp.info.is_transient(node):
            continue
        if isinstance(node, Scan):
            base = sp.base_relation(node)
            for predicate in node.filters:
                if referenced_params(predicate):
                    eq = vectorize._equality_correlation(predicate)
                    if eq is not None:
                        sp.scan_index(node, base, eq[0])
                    break


def _estimate_upper(system, plan: Plan, target: SubqueryFilter, s: int) -> float:
    """Analytic Eq. (1) costs for the nodes above the SUBQ filter."""
    spec = system.coefficients
    out_rows = max(1.0, s * 0.05)  # coarse Dr for the SUBQ selection
    cost = selection_cost_ns(spec, float(s), 1, out_rows, 64.0)
    node = plan
    chain: list[Plan] = []
    while node is not target and node.children():
        chain.append(node)
        node = node.children()[0]
    rows = out_rows
    for upper in reversed(chain):
        if isinstance(upper, Aggregate):
            cost += aggregate_cost_ns(spec, rows, max(1, len(upper.aggs)))
            rows = max(1.0, rows * 0.25) if upper.groups else 1.0
        elif isinstance(upper, Sort):
            cost += sort_cost_ns(spec, rows, 64.0)
        elif isinstance(upper, Limit):
            rows = min(rows, upper.count)
        elif isinstance(upper, Filter):
            cost += selection_cost_ns(spec, rows, 1, rows * 0.3, 64.0)
            rows = max(1.0, rows * 0.3)
    return cost


# ---------------------------------------------------------------------------
# optimizer integration
# ---------------------------------------------------------------------------


def predict_paths(
    system, nested_prepared, unnested_prepared, index_cache=None,
) -> tuple[float, float]:
    """Predicted ms of device time for (nested, unnested) executions.

    The nested side is mostly *measured* (the outer block and probe
    iterations run for real); the unnested side is fully analytic, so
    it is the one the engine's current — possibly recalibrated —
    coefficient set parameterises.

    The *estimated* legs are deliberately costed **unfused** even when
    the engine will fuse the winner: the analytic fused twin of the
    flat plan is optimistic against the nested side's measured probes
    and would flip the choice to a path that is slower when both
    actually run fused.  The one exception is the nested side's
    full-measurement fallback (stacked or quantified subqueries),
    which runs the program exactly as prepared — fused if fusion is
    on — because a real measurement is never optimistic: when the
    fused nested run genuinely beats the flat estimate, that flip is
    a win, not a modelling artefact.
    """
    nested = predict_nested(system, nested_prepared, index_cache=index_cache)
    unnested_ns = estimate_flat_plan_ns(
        system.catalog, system.coefficients, unnested_prepared.plan,
        selectivity=system.selectivity,
    )
    return nested.total_ms, unnested_ns / 1e6
