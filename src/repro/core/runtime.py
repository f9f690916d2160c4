"""Runtime support for generated drive programs.

The code generator (:mod:`repro.core.codegen`) emits a Python drive
program — the analogue of the paper's generated CUDA/C driver — whose
statements call into the :class:`Runtime` below.  The runtime owns the
node registry, the per-subquery state (:class:`SubqueryProgram`), the
memory-pool marks, and the per-node timing used by the cost model.
Every operator entry point hands its node to
:func:`repro.engine.evaluator.run_operator`, the one operator table;
only the transient scan (index probe) and join (hoisted hash) add
behaviour of their own.

A correlated SUBQ takes one of three paths, recorded on its program as
``SubqueryProgram.path``: *vectorized* (:meth:`Runtime.run_vector_batch`,
batches of segmented launches), *replayed* (:meth:`Runtime.replay_loop`:
the body computed once on the host for every key, each iteration's
charges issued as the loop issues them, :mod:`repro.core.replay`), or
the per-iteration *loop* the ``t_*`` entry points run, with the reason
the other two refused it.  An uncorrelated SUBQ runs once
(:meth:`Runtime.uncorrelated_vector`); an uncorrelated IN keeps its one
set for every outer row.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import ExecutionError
from ..engine import operators as ops
from ..engine.evaluator import run_operator, run_plan, scalar_value
from ..engine.exprs import _eval_in_three_valued, _eval_three_valued
from ..engine.relation import Relation, computed_column
from ..gpu import kernels
from ..plan.expressions import (
    AggRef,
    ColRef,
    PlanExpr,
    _replace_subquery_refs,
    referenced_params,
)
from ..plan.invariants import InvariantInfo
from ..plan.nodes import Join, Plan, Scan, SubqueryFilter
from . import replay, vectorize
from .caching import SubqueryCache
from .indexing import CorrelatedIndex, index_pays_off
from .subquery import (
    ExistsResultVector,
    ScalarResultVector,
    TwoLevelResultVector,
)


class SubqueryProgram:
    """Compiled state for one SUBQ: plan, invariants, caches, indexes."""

    def __init__(self, ctx, spec, batch_size: int, fused: bool = False):
        self.ctx, self.spec = ctx, spec
        self.descriptor = descriptor = spec.descriptor
        self.plan = plan = spec.plan
        # data-path fusion (core.fusion): fuse the predicate chains and
        # compaction tails of this subquery's scans/filters, including
        # the vectorized batch path
        self.fused = fused
        # the body's marking, made once by codegen (SubquerySpec.info)
        self.info: InvariantInfo = spec.info
        self.param_quals: tuple[str, ...] = descriptor.free_quals
        self.cache = SubqueryCache(enabled=ctx.options.use_cache)
        self.vectorized = (
            ctx.options.use_vectorization
            and vectorize.can_vectorize(plan, self.info, descriptor.kind)
        )
        self.batch_size = batch_size
        self._invariant_memo: dict[int, Relation] = {}
        self._base_memo: dict[int, Relation] = {}
        self._hash_memo: dict[int, object] = {}
        self._index_memo: dict[int, CorrelatedIndex | None] = {}
        self._expected_iterations = 0
        # the segmented evaluator's per-node outputs, kept only while the
        # replayed loop reads them (core.replay); its scratch twin
        self.stages: dict[int, list] | None = None
        self._scratch: SubqueryProgram | None = None
        # how the SUBQ runs: "once" (uncorrelated), "vectorized",
        # "replayed", or "loop: <why the replay refused it>"
        if not descriptor.is_correlated:
            self.path = "once"
        elif self.vectorized:
            self.path = "vectorized"
        else:
            reason = replay.refusal(self)
            self.path = replay.REPLAYED if reason is None else f"loop: {reason}"

    # -- invariant extraction (paper Section III-D) -----------------------

    def eval_invariants(self, iterations: int) -> None:
        """Evaluate invariant components once, before the loop.

        With invariant extraction disabled the memos stay empty and
        every iteration recomputes the invariant subtrees (the ablation
        configuration).
        """
        self._expected_iterations = iterations
        if not self.ctx.options.use_invariant_extraction:
            return
        for node in self.plan.walk():
            if id(node) in self.info.invariant_roots:
                self.invariant_relation(node)

    def invariant_relation(self, node: Plan) -> Relation:
        key = id(node)
        if key in self._invariant_memo:
            return self._invariant_memo[key]
        rel = run_plan(self.ctx, node)
        if self.ctx.options.use_invariant_extraction:
            self._invariant_memo[key] = rel
        return rel

    def base_relation(self, node: Scan) -> Relation:
        """The scan's rows after its *non-correlated* filters.

        Evaluated once and reused by every iteration; the correlated
        predicate is applied per iteration (or per batch) on top.
        """
        key = id(node)
        if key in self._base_memo:
            return self._base_memo[key]
        plain = [f for f in node.filters if not referenced_params(f)]
        rel = ops.scan(
            self.ctx, node.table, node.binding, plain, None, node.columns,
            fused=self.fused,
        )
        if self.ctx.options.use_invariant_extraction:
            self._base_memo[key] = rel
        return rel

    def hoisted_hash(self, node: Join, invariant_rel: Relation, key: PlanExpr):
        """The invariant child's hash table, built once."""
        memo_key = id(node)
        if memo_key in self._hash_memo:
            return self._hash_memo[memo_key]
        table = ops.build_hash(self.ctx, invariant_rel, key)
        if self.ctx.options.use_invariant_extraction:
            self._hash_memo[memo_key] = table
        return table

    def scan_index(self, node: Scan, base: Relation, key_col: ColRef):
        """The sorted index over the scan's correlated column, if built.

        A session-shared ``ctx.index_cache`` is consulted first, keyed
        on the scan's structural fingerprint: an index built by an
        earlier query in the session is reused without re-paying the
        sort (for a per-query context the cache starts empty, so solo
        execution is unchanged).  Over an unfiltered base column the
        host's sort is the column's own, kept by its table
        (``Table.sorted_column``); the device is charged for it as ever.
        """
        memo_key = id(node)
        if memo_key not in self._index_memo:
            shared_key = self._shared_index_key(node, key_col)
            cached = (
                self.ctx.index_cache.get(shared_key)
                if self.ctx.options.use_index else None
            )
            if cached is not None:
                self._index_memo[memo_key] = cached
                return cached
            build = self.ctx.options.use_index and index_pays_off(
                base.num_rows,
                self._expected_iterations,
                self.ctx.options.index_min_iterations,
            )
            if build:
                values = base.column(key_col.qual).data
                table = self.ctx.catalog.table(node.table)
                presorted = (
                    table.sorted_column(key_col.column)
                    if values is table.column(key_col.column).data else None
                )
                index = CorrelatedIndex.build(self.ctx.device, values, presorted)
                self.ctx.alloc_scratch(index.nbytes)
                self._index_memo[memo_key] = index
                self.ctx.index_cache[shared_key] = index
            else:
                self._index_memo[memo_key] = None
        return self._index_memo[memo_key]

    @staticmethod
    def _shared_index_key(node: Scan, key_col: ColRef) -> tuple:
        """Value-based fingerprint of (scan base, indexed column).

        Two scans with the same table, binding, non-correlated filters
        and column set produce identical base relations, so their
        sorted indexes are interchangeable.  Plan expressions are
        frozen dataclasses, making ``repr`` a stable value key.
        """
        plain = tuple(sorted(
            repr(f) for f in node.filters if not referenced_params(f)
        ))
        return (
            node.table,
            node.binding,
            repr(key_col),
            plain,
            tuple(node.columns or ()),
        )


class Runtime:
    """The object a generated drive program receives as ``rt``."""

    def __init__(self, ctx, nodes: list[Plan], subqueries: list[SubqueryProgram]):
        self.ctx = ctx
        self.tracer = ctx.tracer
        self.nodes = nodes
        self.subprograms = subqueries
        self.node_times_ns: dict[int, float] = {}
        self.node_output_rows: dict[int, int] = {}
        self.node_calls: dict[int, int] = {}
        self.node_launches: dict[int, int] = {}
        # per-subquery loop accounting, keyed by descriptor.index
        self.subquery_iterations: dict[int, int] = {}
        self.subquery_batches: dict[int, int] = {}
        # modelled ns spent outside operators on behalf of a subquery:
        # invariant hoisting, parameter transfer, uncorrelated eval
        self.subquery_overhead_ns: dict[int, float] = {}
        self.fetch_ns = 0.0
        # mid-query adaptivity: set by the executor when the prepared
        # query carries an unnested fallback; the SUBQ loops report
        # their progress and the governor may raise AdaptiveSwitch at a
        # unit boundary (never mid-batch — modelled costs stay whole)
        self.governor = None

    # -- timing -------------------------------------------------------------

    def _timed(self, node_id: int, fn, *args) -> Relation:
        """Run ``fn(*args)`` as plan node ``node_id``: its modelled time,
        launches, calls and output rows are booked to the node.  Entry
        points pass ``run_operator`` and its arguments straight in, so
        no wrapper frame sits between an entry point and its operator."""
        stats = self.ctx.device.stats
        tracer = self.tracer
        span = None
        if tracer.enabled:
            node = self.nodes[node_id]
            span = tracer.begin(
                type(node).__name__, "operator", node_id=node_id
            )
        before_ns = stats.total_ns
        before_launches = stats.kernel_launches
        try:
            result = fn(*args)
        finally:
            self.node_times_ns[node_id] = (
                self.node_times_ns.get(node_id, 0.0)
                + stats.total_ns - before_ns
            )
            self.node_calls[node_id] = self.node_calls.get(node_id, 0) + 1
            self.node_launches[node_id] = (
                self.node_launches.get(node_id, 0)
                + stats.kernel_launches - before_launches
            )
            if span is not None:
                tracer.end(span)
        self.node_output_rows[node_id] = (
            self.node_output_rows.get(node_id, 0) + result.num_rows
        )
        if span is not None:
            span.set_attrs(rows=result.num_rows)
        return result

    def _add_overhead(self, sp: SubqueryProgram, before_ns: float) -> None:
        key = sp.descriptor.index
        self.subquery_overhead_ns[key] = (
            self.subquery_overhead_ns.get(key, 0.0)
            + self.ctx.device.stats.total_ns - before_ns
        )

    # -- flat operators (outer plan) ---------------------------------------
    # Each entry point hands run_operator and the node's inputs straight
    # to _timed; its name is what the generated statement calls.

    def scan(self, node_id: int) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], ()
        )

    def f_scan(self, node_id: int) -> Relation:
        """Fused twin of :meth:`scan`: the predicate chain and the
        compaction tail charge one fused launch (core.fusion)."""
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (), None,
            True,
        )

    def derived(self, node_id: int, inner: Relation) -> Relation:
        return run_operator(self.ctx, self.nodes[node_id], (inner,))

    def join(self, node_id: int, left: Relation, right: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (left, right)
        )

    def cross_join(self, node_id: int, left: Relation, right: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (left, right)
        )

    def filter(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,)
        )

    def f_filter(self, node_id: int, rel: Relation) -> Relation:
        """Fused twin of :meth:`filter` (one launch per chain)."""
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,), None,
            True,
        )

    def semi_join(self, node_id: int, outer: Relation, inner: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (outer, inner)
        )

    def aggregate(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,)
        )

    def project(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,)
        )

    def distinct(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,)
        )

    def sort(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,)
        )

    def limit(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,)
        )

    def fetch(self, rel: Relation) -> Relation:
        before = self.ctx.device.stats.total_ns
        result = ops.fetch_result(self.ctx, rel)
        self.fetch_ns += self.ctx.device.stats.total_ns - before
        return result

    def rows(self, rel: Relation) -> int:
        return rel.num_rows

    # -- subquery machinery ---------------------------------------------------

    def subquery(self, index: int) -> SubqueryProgram:
        sp = self.subprograms[index]
        tracer = self.tracer
        if tracer.enabled:
            # a subquery span has no explicit end hook in the generated
            # program: the next sibling subquery (or the predicate /
            # column application) closes it
            tracer.close_siblings("subquery")
            descriptor = sp.descriptor
            tracer.begin(
                f"subquery #{descriptor.index}", "subquery",
                index=descriptor.index, kind=descriptor.kind,
                params=list(descriptor.free_quals),
                vectorized=sp.vectorized,
            )
        return sp

    def correlated_values(
        self,
        sp: SubqueryProgram,
        outer: Relation,
        outer_env: dict[str, float] | None = None,
    ) -> dict[str, np.ndarray]:
        """Pull the correlated columns to the host for loop control.

        The drive program runs on the CPU, so the parameter values
        cross PCIe once (charged), exactly as the paper's driver does.
        Quals not present in ``outer`` belong to an enclosing loop
        level and are broadcast from its environment (Figure 6).
        """
        before = self.ctx.device.stats.total_ns
        values = {}
        for qual in sp.param_quals:
            if qual in outer:
                column = outer.column(qual)
                self.ctx.device.transfer_d2h(column.nbytes)
                values[qual] = column.data
            elif outer_env is not None and qual in outer_env:
                values[qual] = np.full(outer.num_rows, outer_env[qual])
            else:
                raise ExecutionError(
                    f"correlated parameter {qual} unavailable in this scope"
                )
        self._add_overhead(sp, before)
        return values

    def uncorrelated_vector(self, outer: Relation, sp: SubqueryProgram):
        """Type-A/N subquery: evaluate once, broadcast into a vector.

        An IN subquery returns its one set S as an array: every outer
        row shares it, so it is held once, not once per row.
        """
        before = self.ctx.device.stats.total_ns
        try:
            inner = run_plan(self.ctx, sp.plan)
            if sp.descriptor.kind == "exists":
                vector = ExistsResultVector(outer.num_rows)
                vector.flags[:] = inner.num_rows > 0
            elif sp.descriptor.kind == "in":
                vector = inner.first_column().data.astype(np.float64)
            else:
                value = scalar_value(inner)
                vector = ScalarResultVector(outer.num_rows)
                vector.values[:] = value
                vector.valid[:] = not np.isnan(value)
            return vector
        finally:
            self._add_overhead(sp, before)

    def left_lookup(self, node_id: int, child: Relation, inner: Relation) -> Relation:
        """Outer-join lookup (Dayal count unnesting)."""
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (child, inner)
        )

    def new_result(self, sp: SubqueryProgram, outer: Relation):
        size = outer.num_rows
        if sp.descriptor.kind == "exists":
            vector = ExistsResultVector(size)
        elif sp.descriptor.kind == "in":
            vector = TwoLevelResultVector(size)
        else:
            vector = ScalarResultVector(size)
        self.ctx.alloc_intermediate(vector.nbytes)
        if self.governor is not None:
            # the drive program allocates the result vector right
            # before entering the loop: pin the loop's clock start here
            # so extrapolation covers exactly the per-unit work
            self.governor.loop_started(sp, size)
        return vector

    def eval_invariants(self, sp: SubqueryProgram, outer: Relation) -> None:
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "invariant hoisting", "operator", subquery=sp.descriptor.index
            )
        before = self.ctx.device.stats.total_ns
        try:
            sp.eval_invariants(outer.num_rows)
        finally:
            self._add_overhead(sp, before)
            if span is not None:
                tracer.end(span)

    # pools -------------------------------------------------------------

    def mark_pools(self):
        if self.ctx.options.use_memory_pools:
            return self.ctx.pools.mark_all()
        return None

    def restore_pools(self, marks) -> None:
        if marks is not None:
            self.ctx.pools.restore_all(marks)
        else:
            # no pools: per-iteration raw deallocation, paying the
            # malloc/free overhead the pools exist to avoid
            self.ctx.raw_alloc.free_all()

    # per-iteration (loop) path -------------------------------------------

    def replay_loop(self, sp: SubqueryProgram, corr, vector, marks) -> bool:
        """Run a covered loop as one replay (core.replay); False when
        the per-iteration statements must run instead."""
        return replay.replay_loop(self, sp, corr, vector, marks)

    def param_env(
        self, sp: SubqueryProgram, corr: dict[str, np.ndarray], i: int
    ) -> dict[str, float]:
        if self.governor is not None and i > 0:
            # i iterations have fully completed; check before starting
            # the next so a switch never splits an iteration
            self.governor.iteration_done(sp, i)
        key = sp.descriptor.index
        self.subquery_iterations[key] = self.subquery_iterations.get(key, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            # closed by the store_* that finishes this iteration
            tracer.end_iteration()
            tracer.begin(f"iteration {i}", "iteration", i=i, subquery=key)
        return {qual: corr[qual][i] for qual in sp.param_quals}

    def cache_get(self, sp: SubqueryProgram, env: dict[str, float]):
        key = tuple(env[q] for q in sp.param_quals)
        return sp.cache.get(key)

    def cache_put(self, sp, env, value: float, valid: bool) -> None:
        key = tuple(env[q] for q in sp.param_quals)
        sp.cache.put(key, value, valid)

    def t_scan(self, sp: SubqueryProgram, node_id: int, env) -> Relation:
        return self._timed(node_id, self._t_scan, sp, self.nodes[node_id], env)

    def t_f_scan(self, sp: SubqueryProgram, node_id: int, env) -> Relation:
        """Fused twin of :meth:`t_scan` (core.fusion)."""
        return self._timed(
            node_id, self._t_scan, sp, self.nodes[node_id], env, True
        )

    def _t_scan(
        self, sp: SubqueryProgram, node: Scan, env, fused: bool = False
    ) -> Relation:
        """Transient scan: base rows + the correlated predicate.

        Uses the sorted index (binary search + slice gather) when one
        was built; otherwise a full compare kernel over the base.  The
        fused path keeps the index fast path (it beats any fusion) and
        collapses the remaining correlated predicates plus the
        compaction tail into one fused launch.
        """
        rel = base = sp.base_relation(node)
        remaining = [f for f in node.filters if referenced_params(f)]
        eq = vectorize._equality_correlation(remaining[0]) if remaining else None
        index = sp.scan_index(node, base, eq[0]) if eq is not None else None
        if index is not None:
            self.ctx.index_probes += 1
            rel = rel.take_no_charge(index.lookup(self.ctx.device, env[eq[1]]))
            ops._materialize(self.ctx, rel)
            remaining = remaining[1:]
        rel = ops.filter_rel_multi(self.ctx, rel, remaining, env, fused=fused)
        self.ctx.operator_done()
        return rel

    def t_join(
        self, sp: SubqueryProgram, node_id: int, left: Relation, right: Relation, env
    ) -> Relation:
        return self._timed(
            node_id, self._t_join, sp, self.nodes[node_id], left, right, env
        )

    def _t_join(
        self, sp: SubqueryProgram, node: Join, left: Relation, right: Relation, env
    ) -> Relation:
        """Transient join; reuses the hoisted hash table when one side
        is invariant (the table is built on that side, once)."""
        if id(node) not in sp.info.hoisted_joins:
            return run_operator(self.ctx, node, (left, right), env)
        if sp.info.is_transient(node.left):
            side, table = "right", sp.hoisted_hash(node, right, node.right_key)
        else:
            side, table = "left", sp.hoisted_hash(node, left, node.left_key)
        return ops.join(
            self.ctx, left, right, node.left_key, node.right_key, env,
            build_side=side, prebuilt=table,
        )

    def t_filter(self, sp, node_id: int, rel: Relation, env) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,), env
        )

    def t_f_filter(self, sp, node_id: int, rel: Relation, env) -> Relation:
        """Fused twin of :meth:`t_filter` (core.fusion)."""
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,), env,
            True,
        )

    def t_aggregate(self, sp, node_id: int, rel: Relation, env) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,), env
        )

    def t_project(self, sp, node_id: int, rel: Relation, env) -> Relation:
        return self._timed(
            node_id, run_operator, self.ctx, self.nodes[node_id], (rel,), env
        )

    def invariant(self, sp: SubqueryProgram, node_id: int) -> Relation:
        node = self.nodes[node_id]
        if id(node) in sp._invariant_memo:
            # hoisted: already evaluated (and charged) before the loop
            return sp.invariant_relation(node)
        # extraction disabled (ablation): re-evaluated per call, so the
        # cost belongs to this node
        return self._timed(node_id, sp.invariant_relation, node)

    def run_iteration(self, sp: SubqueryProgram, env: dict[str, float]):
        """One subquery iteration by direct plan walk.

        The generated drive program inlines these steps statically;
        this dynamic twin exists for the cost model's island probing
        (Section IV), which needs to execute a handful of iterations
        without generating code.
        """
        def walk(node: Plan) -> Relation:
            if not sp.info.is_transient(node):
                return sp.invariant_relation(node)
            if type(node) is Scan:
                return self._t_scan(sp, node, env, sp.fused)
            inputs = [walk(child) for child in node.children()]
            if type(node) is Join:
                return self._t_join(sp, node, *inputs, env)
            return run_operator(self.ctx, node, inputs, env, sp.fused)

        root = walk(sp.plan)
        if sp.descriptor.kind == "exists":
            return float(root.num_rows > 0), True
        if sp.descriptor.kind == "in":
            return self.values_from(root), True
        return self.scalar_from(sp, root)

    # result extraction ---------------------------------------------------

    def scalar_from(self, sp, rel: Relation) -> tuple[float, bool]:
        value = scalar_value(rel)
        return value, not np.isnan(value)

    def exists_from(self, rel: Relation) -> bool:
        return rel.num_rows > 0

    def values_from(self, rel: Relation) -> np.ndarray:
        return rel.first_column().data.astype(np.float64)

    def store_scalar(self, vector: ScalarResultVector, i: int, value, valid) -> None:
        vector.store(i, value, valid)
        self.tracer.end_iteration(cache_hit=False)

    def store_exists(self, vector: ExistsResultVector, i: int, flag: bool) -> None:
        vector.store(i, flag)
        self.tracer.end_iteration(cache_hit=False)

    def store_values(self, vector: TwoLevelResultVector, i, values) -> None:
        vector.store(i, values)
        self.tracer.end_iteration()

    def store_cached(self, vector, i: int, hit: tuple[float, bool]) -> None:
        value, valid = hit
        if isinstance(vector, ExistsResultVector):
            vector.store(i, bool(value) and valid)
        else:
            vector.store(i, value, valid)
        # in the loop path this ends the iteration; called from inside a
        # batch span, end_iteration hits the batch boundary and no-ops
        self.tracer.end_iteration(cache_hit=True)

    # vectorized path ----------------------------------------------------

    def run_vector_batch(
        self,
        sp: SubqueryProgram,
        corr: dict[str, np.ndarray],
        lo: int,
        hi: int,
        vector,
    ) -> None:
        """One fused batch: cache probe, dedupe, segmented evaluation."""
        key = sp.descriptor.index
        self.subquery_batches[key] = self.subquery_batches.get(key, 0) + 1
        self.subquery_iterations[key] = (
            self.subquery_iterations.get(key, 0) + (hi - lo)
        )
        tracer = self.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                f"batch [{lo}:{hi}]", "batch", subquery=key, rows=hi - lo
            )
        try:
            self._run_vector_batch(sp, corr, lo, hi, vector, span)
        finally:
            if span is not None:
                tracer.end(span)
        if self.governor is not None:
            # after the span closes: a switch raised here unwinds with
            # the batch fully accounted
            self.governor.batch_done(sp, hi)

    def _run_vector_batch(self, sp, corr, lo, hi, vector, span) -> None:
        rows = np.arange(lo, hi)
        keys = list(
            zip(*(corr[q][lo:hi].tolist() for q in sp.param_quals))
        )
        hit_rows, hit_values, miss_rows = sp.cache.probe_batch(keys)
        if span is not None:
            span.set_attrs(
                cache_hits=len(hit_rows), cache_misses=len(miss_rows)
            )
        for row, (value, valid) in zip(hit_rows, hit_values):
            self.store_cached(vector, lo + row, (value, valid))
        if not miss_rows:
            return
        # dedupe the misses: evaluate unique parameter tuples once
        miss_keys = [keys[r] for r in miss_rows]
        unique_keys, inverse = _unique_tuples(miss_keys)
        batch = {
            qual: np.asarray([key[k] for key in unique_keys])
            for k, qual in enumerate(sp.param_quals)
        }
        result = vectorize.run_batch(sp, batch)
        if sp.descriptor.kind == "exists":
            flags = result
            per_row = flags[inverse]
            vector.store_rows(rows[miss_rows], per_row)
            sp.cache.put_batch(
                unique_keys, flags.astype(np.float64), np.ones(len(flags), bool)
            )
        else:
            values, valid = result
            vector.store_rows(
                rows[miss_rows], values[inverse], valid[inverse]
            )
            sp.cache.put_batch(unique_keys, values, valid)

    def append_subquery_column(
        self, node_id: int, outer: Relation, vector
    ) -> Relation:
        """SELECT-list subquery: the result vector becomes a column.

        Invalid (NULL) scalars stay NaN, which decodes as NaN — the
        library's NULL representation for computed columns.
        """
        self.tracer.close_siblings("subquery")
        node = self.nodes[node_id]

        def run():
            if isinstance(vector, ScalarResultVector):
                data = vector.values
            elif isinstance(vector, ExistsResultVector):
                data = vector.flags.astype(np.float64)
            else:
                raise ExecutionError(
                    "only scalar subqueries may appear in the SELECT list"
                )
            return ops._finish(self.ctx, outer.with_columns(
                {node.output_name: computed_column(node.output_name, data)}
            ))

        return self._timed(node_id, run)

    # predicate application ---------------------------------------------------

    def apply_subquery_predicate(
        self, node_id: int, outer: Relation, vectors: dict[int, object]
    ) -> Relation:
        """Evaluate the outer predicate with the result vector(s) in
        place of the ``SUBQ`` operand(s) (paper Figure 4's final
        selection).  ``vectors`` maps subquery index -> result vector.
        """
        self.tracer.close_siblings("subquery")
        return self._timed(
            node_id, self._apply_predicate, self.nodes[node_id], outer, vectors
        )

    def f_apply_subquery_predicate(
        self, node_id: int, outer: Relation, vectors: dict[int, object]
    ) -> Relation:
        """Fused twin of :meth:`apply_subquery_predicate`: the 3VL
        predicate tree over the result vectors and the compaction tail
        charge one fused launch (core.fusion)."""
        self.tracer.close_siblings("subquery")
        return self._timed(
            node_id, self._apply_predicate, self.nodes[node_id], outer,
            vectors, True,
        )

    def _apply_predicate(
        self,
        node: SubqueryFilter,
        outer: Relation,
        vectors: dict[int, object],
        fused: bool = False,
    ) -> Relation:
        device = self.ctx.device
        with kernels.fused(device, "fused_predicate") if fused else kernels.UNFUSED:
            mapping: dict[int, AggRef] = {}
            columns = {}
            known_cols: dict[str, np.ndarray] = {}
            by_index = {d.index: d for d in node.descriptors}
            for index, vector in vectors.items():
                marker = f"__subq{index}"
                if isinstance(vector, ScalarResultVector):
                    # NaN marks NULL; the three-valued Compare below reads
                    # knownness straight off the values, so no side channel.
                    data = vector.values
                elif isinstance(vector, ExistsResultVector):
                    data = vector.flags
                else:  # IN: a TwoLevelResultVector (one set S per row)
                    # or an uncorrelated subquery's one S for every row
                    descriptor = by_index[index]
                    if isinstance(vector, np.ndarray):
                        members = partial(np.isin, test_elements=vector)
                        empty = len(vector) == 0
                        set_null = bool(np.isnan(vector).any())
                    else:
                        vector.freeze()
                        members, empty = vector.membership, vector.lengths == 0
                        set_null = vector.null_flags()
                    data, known_cols[marker] = _eval_in_three_valued(
                        self.ctx, outer, descriptor.in_operand,
                        members, empty, set_null, descriptor.negated,
                    )
                columns[marker] = computed_column(marker, data)
                mapping[index] = AggRef(marker)

            augmented = outer.with_columns(columns)
            predicate = _replace_subquery_refs(node.predicate, mapping)
            truth, _ = _eval_three_valued(
                predicate, augmented, self.ctx, known_cols
            )
            # the tail runs inside the scope, as it always has
            return ops._finish(
                self.ctx, outer, kernels.compact(device, truth)
            )


def _unique_tuples(keys: list[tuple]):
    """Deduplicate parameter tuples -> (unique list, inverse indices)."""
    seen: dict[tuple, int] = {}
    unique: list[tuple] = []
    inverse = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        idx = seen.get(key)
        if idx is None:
            idx = len(unique)
            seen[key] = idx
            unique.append(key)
        inverse[i] = idx
    return unique, inverse
