"""Runtime support for generated drive programs.

The code generator (:mod:`repro.core.codegen`) emits a Python drive
program — the analogue of the paper's generated CUDA/C driver — whose
statements call into the :class:`Runtime` below.  The runtime owns the
node registry, the per-subquery state (:class:`SubqueryProgram`), the
memory-pool marks, and the per-node timing used by the cost model.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ExecutionError
from ..engine import operators as ops
from ..engine.evaluator import run_plan
from ..engine.exprs import _MIRROR, _python_compare, evaluate
from ..engine.relation import Relation, computed_column
from ..gpu import kernels
from ..plan.expressions import (
    AggRef,
    BoolOp,
    ColRef,
    Compare,
    InCodes,
    NotOp,
    PlanExpr,
    SubqueryRef,
    referenced_params,
)
from ..plan.invariants import InvariantInfo, mark_invariants
from ..plan.nodes import Aggregate, Filter, Join, Plan, Project, Scan, SubqueryFilter
from . import vectorize
from .caching import SubqueryCache
from .indexing import CorrelatedIndex, index_pays_off
from .subquery import (
    ExistsResultVector,
    ScalarResultVector,
    TwoLevelResultVector,
)


class SubqueryProgram:
    """Compiled state for one SUBQ: plan, invariants, caches, indexes."""

    def __init__(self, ctx, descriptor, plan: Plan, batch_size: int,
                 fused: bool = False):
        self.ctx = ctx
        self.descriptor = descriptor
        self.plan = plan
        # data-path fusion (core.fusion): fuse the predicate chains and
        # compaction tails of this subquery's scans/filters, including
        # the vectorized batch path
        self.fused = fused
        self.info: InvariantInfo = mark_invariants(plan)
        self.param_quals: tuple[str, ...] = descriptor.free_quals
        self.cache = SubqueryCache(
            enabled=ctx.options.use_cache, namespace=descriptor.index
        )
        self.vectorized = (
            ctx.options.use_vectorization
            and descriptor.kind in ("scalar", "exists")
            and vectorize.can_vectorize(plan, self.info)
        )
        self.batch_size = batch_size
        self._invariant_memo: dict[int, Relation] = {}
        self._base_memo: dict[int, Relation] = {}
        self._hash_memo: dict[int, object] = {}
        self._index_memo: dict[int, CorrelatedIndex | None] = {}
        self._expected_iterations = 0

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
        execution is unchanged).
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
                index = CorrelatedIndex.build(self.ctx.device, values)
                self.ctx.alloc_scratch(index.nbytes)
                self._index_memo[memo_key] = index
                self.ctx.index_cache[shared_key] = index
            else:
                self._index_memo[memo_key] = None
        return self._index_memo[memo_key]

    def scan_table(self, node: Scan, keys: np.ndarray) -> kernels.JoinHash:
        """Uncharged host-side key table of the unindexed vectorized
        scan (the device pays B full scans), sorted once per scan."""
        if id(node) not in self._hash_memo:
            self._hash_memo[id(node)] = kernels.JoinHash.build(keys)
        return self._hash_memo[id(node)]

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

    def _timed(self, node_id: int, fn):
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
            result = fn()
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
        if isinstance(result, Relation):
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

    def scan(self, node_id: int) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.scan(
            self.ctx, node.table, node.binding, node.filters, None, node.columns
        ))

    def f_scan(self, node_id: int) -> Relation:
        """Fused twin of :meth:`scan`: the predicate chain and the
        compaction tail charge one fused launch (core.fusion)."""
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.scan(
            self.ctx, node.table, node.binding, node.filters, None,
            node.columns, fused=True,
        ))

    def derived(self, node_id: int, inner: Relation) -> Relation:
        node = self.nodes[node_id]
        return inner.renamed_prefix(node.binding)

    def join(self, node_id: int, left: Relation, right: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.join(
            self.ctx, left, right, node.left_key, node.right_key,
            build_side=node.build_side,
        ))

    def cross_join(self, node_id: int, left: Relation, right: Relation) -> Relation:
        return self._timed(node_id, lambda: ops.cross_join(self.ctx, left, right))

    def filter(self, node_id: int, rel: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.filter_rel(
            self.ctx, rel, node.predicate
        ))

    def f_filter(self, node_id: int, rel: Relation) -> Relation:
        """Fused twin of :meth:`filter` (one launch per chain)."""
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.filter_rel(
            self.ctx, rel, node.predicate, fused=True
        ))

    def semi_join(self, node_id: int, outer: Relation, inner: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.semi_join(
            self.ctx, outer, inner, node.outer_key, node.inner_key, node.negated
        ))

    def aggregate(self, node_id: int, rel: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.aggregate(
            self.ctx, rel, node.groups, node.aggs, node.having
        ))

    def project(self, node_id: int, rel: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.project(
            self.ctx, rel, node.exprs, node.names
        ))

    def distinct(self, node_id: int, rel: Relation) -> Relation:
        return self._timed(node_id, lambda: ops.distinct(self.ctx, rel))

    def sort(self, node_id: int, rel: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.sort(
            self.ctx, rel, node.keys, node.descending
        ))

    def limit(self, node_id: int, rel: Relation) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.limit(self.ctx, rel, node.count))

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
        """Type-A/N subquery: evaluate once, broadcast into a vector."""
        before = self.ctx.device.stats.total_ns
        try:
            return self._uncorrelated_vector(outer, sp)
        finally:
            self._add_overhead(sp, before)

    def _uncorrelated_vector(self, outer: Relation, sp: SubqueryProgram):
        inner = run_plan(self.ctx, sp.plan)
        if sp.descriptor.kind == "exists":
            vector = ExistsResultVector(outer.num_rows)
            vector.flags[:] = inner.num_rows > 0
        elif sp.descriptor.kind == "in":
            vector = TwoLevelResultVector(outer.num_rows)
            values = next(iter(inner.columns.values())).data.astype(np.float64)
            for row in range(outer.num_rows):
                vector.store(row, values)
        else:
            if inner.num_rows != 1:
                raise ExecutionError(
                    f"scalar subquery produced {inner.num_rows} rows"
                )
            value = float(next(iter(inner.columns.values())).data[0])
            vector = ScalarResultVector(outer.num_rows)
            vector.values[:] = value
            vector.valid[:] = not np.isnan(value)
        return vector

    def left_lookup(self, node_id: int, child: Relation, inner: Relation) -> Relation:
        """Outer-join lookup (Dayal count unnesting)."""
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.left_lookup(
            self.ctx, child, inner, node.outer_key, node.inner_key,
            node.value_column, node.output_name, node.default,
        ))

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
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: self._t_scan(sp, node, env))

    def t_f_scan(self, sp: SubqueryProgram, node_id: int, env) -> Relation:
        """Fused twin of :meth:`t_scan` (core.fusion)."""
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: self._t_scan(
            sp, node, env, fused=True
        ))

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
        node = self.nodes[node_id]
        return self._timed(
            node_id, lambda: self._t_join(sp, node, left, right, env)
        )

    def _t_join(
        self, sp: SubqueryProgram, node: Join, left: Relation, right: Relation, env
    ) -> Relation:
        """Transient join; reuses the hoisted hash table when one side
        is invariant."""
        hoisted = id(node) in sp.info.hoisted_joins
        if hoisted:
            left_transient = sp.info.is_transient(node.left)
            if left_transient:
                invariant_rel, invariant_key = right, node.right_key
                probe_rel, probe_key = left, node.left_key
                side = "right"
            else:
                invariant_rel, invariant_key = left, node.left_key
                probe_rel, probe_key = right, node.right_key
                side = "left"
            table = sp.hoisted_hash(node, invariant_rel, invariant_key)
            if side == "right":
                return ops.join(
                    self.ctx, probe_rel, invariant_rel, probe_key,
                    invariant_key, env, build_side="right", prebuilt=table,
                )
            return ops.join(
                self.ctx, invariant_rel, probe_rel, invariant_key,
                probe_key, env, build_side="left", prebuilt=table,
            )
        return ops.join(
            self.ctx, left, right, node.left_key, node.right_key, env,
            build_side=node.build_side,
        )

    def t_filter(self, sp, node_id: int, rel: Relation, env) -> Relation:
        node = self.nodes[node_id]
        return self._timed(
            node_id, lambda: ops.filter_rel(self.ctx, rel, node.predicate, env)
        )

    def t_f_filter(self, sp, node_id: int, rel: Relation, env) -> Relation:
        """Fused twin of :meth:`t_filter` (core.fusion)."""
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.filter_rel(
            self.ctx, rel, node.predicate, env, fused=True
        ))

    def t_aggregate(self, sp, node_id: int, rel: Relation, env) -> Relation:
        node = self.nodes[node_id]
        return self._timed(node_id, lambda: ops.aggregate(
            self.ctx, rel, node.groups, node.aggs, node.having, env
        ))

    def t_project(self, sp, node_id: int, rel: Relation, env) -> Relation:
        node = self.nodes[node_id]
        return self._timed(
            node_id, lambda: ops.project(self.ctx, rel, node.exprs, node.names)
        )

    def invariant(self, sp: SubqueryProgram, node_id: int) -> Relation:
        node = self.nodes[node_id]
        if id(node) in sp._invariant_memo:
            # hoisted: already evaluated (and charged) before the loop
            return sp.invariant_relation(node)
        # extraction disabled (ablation): re-evaluated per call, so the
        # cost belongs to this node
        return self._timed(node_id, lambda: sp.invariant_relation(node))

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
            if isinstance(node, Scan):
                return self._t_scan(sp, node, env, fused=sp.fused)
            if isinstance(node, Join):
                return self._t_join(sp, node, walk(node.left), walk(node.right), env)
            if isinstance(node, Filter):
                return ops.filter_rel(
                    self.ctx, walk(node.child), node.predicate, env,
                    fused=sp.fused,
                )
            if isinstance(node, Aggregate):
                return ops.aggregate(
                    self.ctx, walk(node.child), node.groups, node.aggs,
                    node.having, env,
                )
            if isinstance(node, Project):
                return ops.project(self.ctx, walk(node.child), node.exprs, node.names)
            raise ExecutionError(f"cannot probe node {node!r}")

        root = walk(sp.plan)
        if sp.descriptor.kind == "exists":
            return float(root.num_rows > 0), True
        if sp.descriptor.kind == "in":
            return self.values_from(root), True
        return self.scalar_from(sp, root)

    # result extraction ---------------------------------------------------

    def scalar_from(self, sp, rel: Relation) -> tuple[float, bool]:
        if rel.num_rows != 1:
            raise ExecutionError(
                f"scalar subquery produced {rel.num_rows} rows"
            )
        value = float(next(iter(rel.columns.values())).data[0])
        return value, not np.isnan(value)

    def exists_from(self, rel: Relation) -> bool:
        return rel.num_rows > 0

    def values_from(self, rel: Relation) -> np.ndarray:
        return next(iter(rel.columns.values())).data.astype(np.float64)

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
            out = Relation(
                {**outer.columns,
                 node.output_name: computed_column(node.output_name, data)},
                outer.num_rows,
            )
            ops._materialize(self.ctx, out)
            self.ctx.operator_done()
            return out

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
        node = self.nodes[node_id]
        return self._timed(
            node_id, lambda: self._apply_predicate(node, outer, vectors)
        )

    def f_apply_subquery_predicate(
        self, node_id: int, outer: Relation, vectors: dict[int, object]
    ) -> Relation:
        """Fused twin of :meth:`apply_subquery_predicate`: the 3VL
        predicate tree over the result vectors and the compaction tail
        charge one fused launch (core.fusion)."""
        self.tracer.close_siblings("subquery")
        node = self.nodes[node_id]
        return self._timed(
            node_id,
            lambda: self._apply_predicate(node, outer, vectors, fused=True),
        )

    def _apply_predicate(
        self,
        node: SubqueryFilter,
        outer: Relation,
        vectors: dict[int, object],
        fused: bool = False,
    ) -> Relation:
        if fused:
            with kernels.fused(self.ctx.device, "fused_predicate"):
                return self._apply_predicate_inner(node, outer, vectors)
        return self._apply_predicate_inner(node, outer, vectors)

    def _apply_predicate_inner(
        self, node: SubqueryFilter, outer: Relation, vectors: dict[int, object]
    ) -> Relation:
        from ..plan.unnest import _replace_subquery_refs

        mapping: dict[int, AggRef] = {}
        columns = dict(outer.columns)
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
            else:  # TwoLevelResultVector: reduce to 3VL membership first
                descriptor = by_index[index]
                vector.freeze()
                operand = evaluate(descriptor.in_operand, outer, self.ctx, None)
                if not isinstance(operand, np.ndarray):
                    operand = np.full(outer.num_rows, operand, dtype=np.float64)
                self.ctx.device.launch("in_membership", outer.num_rows, work=2.0)
                membership = vector.membership(operand)
                # x IN S: TRUE on a match, FALSE when S is empty, and
                # UNKNOWN when there is no match but x is NULL or S
                # contains a NULL (the NULL *might* have been x).
                empty = vector.lengths == 0
                operand_null = _nan_mask(operand, outer.num_rows)
                self.ctx.device.launch("null_scan", outer.num_rows)
                unknown = ~membership & ~empty & (
                    operand_null | vector.null_flags()
                )
                known = ~unknown
                data = (membership != descriptor.negated) & known
                known_cols[marker] = known
            columns[marker] = computed_column(marker, data)
            mapping[index] = AggRef(marker)

        augmented = Relation(columns, outer.num_rows)
        predicate = _replace_subquery_refs(node.predicate, mapping)
        truth, _ = _eval_three_valued(predicate, augmented, self.ctx, known_cols)
        indices = kernels.compact(self.ctx.device, truth)
        out = outer.take_no_charge(indices)
        ops._materialize(self.ctx, out)
        self.ctx.operator_done()
        return out


def _nan_mask(value, size: int) -> np.ndarray:
    """Per-row NULL (NaN) flags for an evaluated operand."""
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            return np.isnan(value)
        return np.zeros(size, dtype=bool)
    if isinstance(value, float) and math.isnan(value):
        return np.ones(size, dtype=bool)
    return np.zeros(size, dtype=bool)


def _eval_three_valued(
    expr: PlanExpr, rel: Relation, ctx, known_cols: dict[str, np.ndarray]
):
    """Kleene (K3) evaluation -> ``(truth, known)`` boolean arrays.

    Invariant: ``truth`` is False wherever ``known`` is False, so the
    truth array doubles directly as the WHERE filter mask (SQL keeps
    only TRUE rows; UNKNOWN is excluded just like FALSE).  NULL is NaN
    throughout, including marker columns for invalid scalar subqueries;
    ``known_cols`` carries knownness for boolean markers (IN membership)
    whose UNKNOWN cannot be encoded in the data itself.
    """
    device = ctx.device
    size = rel.num_rows
    if isinstance(expr, BoolOp):
        lt, lk = _eval_three_valued(expr.left, rel, ctx, known_cols)
        rt, rk = _eval_three_valued(expr.right, rel, ctx, known_cols)
        if expr.op == "and":
            truth = kernels.logical_and(device, lt, rt)
            known = (lk & rk) | (lk & ~lt) | (rk & ~rt)
        else:
            truth = kernels.logical_or(device, lt, rt)
            known = (lk & rk) | lt | rt
        return truth, known
    if isinstance(expr, NotOp):
        truth, known = _eval_three_valued(expr.operand, rel, ctx, known_cols)
        return (~truth) & known, known
    if isinstance(expr, Compare):
        left = evaluate(expr.left, rel, ctx, None)
        right = evaluate(expr.right, rel, ctx, None)
        left_is_array = isinstance(left, np.ndarray)
        right_is_array = isinstance(right, np.ndarray)
        if left_is_array and right_is_array:
            raw = kernels.compare_arrays(device, left, right, expr.op)
        elif left_is_array:
            raw = kernels.compare_scalar(device, left, expr.op, right)
        elif right_is_array:
            raw = kernels.compare_scalar(device, right, _MIRROR[expr.op], left)
        else:
            raw = np.full(size, _python_compare(expr.op, left, right))
        known = ~(_nan_mask(left, size) | _nan_mask(right, size))
        return raw & known, known
    if isinstance(expr, AggRef):
        data = rel.column(expr.name).data
        known = known_cols.get(expr.name)
        if known is None:
            known = ~_nan_mask(data, size)
        return data.astype(bool) & known, known
    if isinstance(expr, InCodes):
        # evaluate() already folds UNKNOWN membership to False; recover
        # knownness for the NULL-probe case so NOT does not flip it.
        truth = evaluate(expr, rel, ctx, None)
        if not isinstance(truth, np.ndarray):
            truth = np.full(size, bool(truth))
        known = np.ones(size, dtype=bool)
        if len(expr.codes):
            operand = evaluate(expr.operand, rel, ctx, None)
            known = ~_nan_mask(operand, size)
        return truth & known, known
    raw = evaluate(expr, rel, ctx, None)
    if not isinstance(raw, np.ndarray):
        raw = np.full(size, bool(raw))
    return raw.astype(bool), np.ones(size, dtype=bool)


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
