"""The replayed SUBQ loop: compute a covered body once, charge every
iteration as the loop does.

The paper's nested method (Section III-B) runs the subquery once per
outer tuple, and the modelled clock has to keep doing that: Eqs. 1-9,
the vectorisation ablation and every configuration that does not
vectorise a body are built on it.  The host does not have to.  For a
correlated body the replay covers (:func:`refusal` is None),
:func:`replay_loop` evaluates the body once with
:mod:`repro.core.vectorize`, against a scratch device and context that
nothing reads afterwards, from one of two segment sources chosen as the
loop's ``Runtime._t_scan`` chooses its access path:

* the first correlated scan predicate is ``col = $p``: one segment per
  distinct parameter tuple, found through that equality; any later
  correlated predicate (range, ``!=``, OR) is a row-local stage;
* any other first predicate: the loop scans the whole base on every
  miss.  The body's transient spine runs once over every base row with
  the correlated predicates dropped, each output row carrying its base
  row; per key, the correlated predicates are one mask over the base,
  and a node's rows for that key are those whose base row passes.

The evaluation charges nothing and reads only the loop's correlated
values, the catalog and the options, so the program's ``SubquerySpec``
keeps it for the next execution that binds the same values: a warm
session's loop evaluates its body once, not once per execution.  Each
execution then walks the outer rows in order and charges each
iteration exactly what the loop would, from that iteration's segment
counts:

* the governor check, the cache get and put and the pool restore;
* per body node, the ``Runtime._timed`` booking around the node's
  launches, materialisations and pool allocations, issued through the
  same kernel and operator helpers the real operators call, inside the
  same fusion scopes when the program is fused;
* lazily memoised first-use work (base relation, correlated index,
  hoisted hash table), which the real memos charge inside the first
  miss.

Rows, the modelled clock, every launch and every counter are the
loop's; under a tracer, so is the span tree, iteration spans included.
Any other body keeps the loop, and the program records why
(``SubqueryProgram.path``).
"""

from __future__ import annotations

import copy
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from ..engine import operators as ops
from ..engine.context import ExecutionContext
from ..engine.exprs import evaluate
from ..engine.relation import Relation, computed_column
from ..errors import ReproError
from ..gpu import kernels
from ..gpu.device import ScratchDevice
from ..plan.expressions import AggRef, ColRef, referenced_params
from ..plan.invariants import _node_has_params
from ..plan.nodes import Aggregate, Filter, Join, Plan, Project, Scan
from . import vectorize

#: ``SubqueryProgram.path`` of a loop this module replays
REPLAYED = "replayed"


def refusal(sp) -> str | None:
    """Why the loop of ``sp`` cannot be replayed; None if it can.

    The body has a ``vectorize.shape_refusal`` shape and every transient
    join is hoisted, so one scan at most is transient.  Any row-local
    correlated scan predicate is covered.  Over a whole-base scan (see
    :func:`_whole_base_scan`) no other node may read a parameter.
    """
    if not sp.ctx.options.use_invariant_extraction:
        return "invariant extraction off"
    reason = vectorize.shape_refusal(sp.plan, sp.info, sp.descriptor.kind)
    if reason is not None:
        return reason
    whole_base = _whole_base_scan(sp) is not None
    for node in sp.plan.walk():
        if not sp.info.is_transient(node):
            continue
        if type(node) is Join and id(node) not in sp.info.hoisted_joins:
            return "transient join"
        if whole_base and type(node) is not Scan and _node_has_params(node):
            return f"correlated {type(node).__name__} over a whole-base scan"
    return None


def _whole_base_scan(sp) -> Scan | None:
    """The transient scan whose first correlated predicate is not
    ``col = $p``: the loop reads its whole base on every miss."""
    for node in sp.plan.walk():
        if type(node) is Scan and sp.info.is_transient(node):
            first = next(f for f in node.filters if referenced_params(f))
            if vectorize._equality_correlation(first) is None:
                return node
    return None


def replay_loop(rt, sp, corr: dict[str, np.ndarray], vector, marks) -> bool:
    """Replay the loop of ``sp`` over every outer row into ``vector``.

    Returns False, with ``sp.path`` naming the reason, when the loop
    must run instead: the body is not covered, a parameter is NULL, or
    the segmented evaluation found a shape it cannot replay.  Nothing is
    charged before that decision.
    """
    if sp.path != REPLAYED:
        return False
    reason = None
    if any(
        values.dtype.kind == "f" and np.isnan(values).any()
        for values in corr.values()
    ):
        reason = "NULL parameter"
    else:
        body = sp.spec.replayed
        if body is None or not body.evaluates(sp, corr):
            try:
                body = sp.spec.replayed = _Body(sp, corr)
            except _Refused as refused:
                reason = str(refused)
    if reason is not None:
        sp.path = f"loop: {reason}"
        return False
    body.drive(rt, sp, vector, marks)
    return True


class _Refused(Exception):
    """A shape the replay cannot charge exactly; the loop runs it."""


class _Rows:
    """What ``Runtime._timed`` reads off an operator's result."""

    __slots__ = ("num_rows",)

    def __init__(self, num_rows: int):
        self.num_rows = num_rows


class _Recorder:
    """A device stand-in that records ``(tag, work)`` per launch."""

    def __init__(self):
        self.launches: list[tuple[str, float]] = []

    def launch(self, tag: str, elements: int, work: float = 1.0) -> float:
        self.launches.append((tag, work))
        return 0.0


def _template(expr, rel: Relation, env, array_only: bool = False):
    """The launches ``evaluate(expr, ...)`` makes over any row count.

    Every launch of the expression evaluator covers the relation's row
    count with a work factor fixed by the expression, so evaluating over
    no rows records the list once.  A predicate that folds to a constant
    (``array_only``) steers its operator per parameter value: refused.
    """
    recorder = _Recorder()
    empty = rel.take_no_charge(np.empty(0, dtype=np.int64))
    result = evaluate(expr, empty, SimpleNamespace(device=recorder), env)
    if array_only and not isinstance(result, np.ndarray):
        raise _Refused("constant predicate")
    return recorder.launches


def _charge_select(ctx, templates, n: int, out: int, row_bytes: int,
                   fused: bool) -> None:
    """A selection's charges as ``ops._select_all`` makes them: each
    predicate's launches over ``n`` rows, joined by ``logical_and``,
    and the compact, in one fused launch if ``fused``; then the
    materialise of ``out`` rows."""
    device = ctx.device
    with kernels.fused(device, "fused_filter") if fused else kernels.UNFUSED:
        for k, template in enumerate(templates):
            for tag, work in template:
                device.launch(tag, n, work)
            if k:
                device.launch("scan_and", n)
        kernels.charge_compact(device, n)
    ops.charge_materialize(ctx, row_bytes * out)
    ctx.operator_done()


def _scratch(sp):
    """The program's private twin on a scratch device (made once)."""
    scratch = sp._scratch
    if scratch is None:
        ctx = sp.ctx
        # a scratch device holds every key's rows at once: no capacity
        device = ScratchDevice(replace(ctx.device.spec, memory_bytes=1 << 62))
        # the program's plan, invariant marking and options, with its own
        # context and first-use memos
        scratch = sp._scratch = copy.copy(sp)
        scratch.ctx = ExecutionContext(
            ctx.catalog, device, ctx.options, index_cache=dict(ctx.index_cache)
        )
        scratch._base_memo, scratch._hash_memo, scratch._index_memo = {}, {}, {}
    scratch._invariant_memo = dict(sp._invariant_memo)
    scratch._expected_iterations = sp._expected_iterations
    scratch.stages = {}
    return scratch


def _source(sp) -> tuple:
    """What a body's evaluation reads besides the correlated values: the
    catalog's data, the options and whether the program is fused."""
    ctx = sp.ctx
    return ctx.catalog, ctx.catalog.version, ctx.options, sp.fused


class _Body:
    """Per-segment results and the per-node charge steps of one loop,
    kept on its ``SubquerySpec`` while executions bind the same values
    (:meth:`evaluates`).  A step takes the execution's context and
    program, whose first-use memos each execution pays afresh."""

    def __init__(self, sp, corr):
        self.source = _source(sp)
        self.corr = {q: corr[q].copy() for q in sp.param_quals}
        self.keys = keys = list(
            zip(*(corr[q].tolist() for q in sp.param_quals))
        )
        seen: dict[tuple, int] = {}
        first: list[int] = []
        seg_of: list[int] = []
        for row, key in enumerate(keys):
            segment = seen.get(key)
            if segment is None:
                segment = seen[key] = len(first)
                first.append(row)
            seg_of.append(segment)
        self.seg_of = seg_of
        self.steps: list[tuple[Plan, object]] = []
        self.aggregate = None
        self.projects: list[Project] = []
        # over a whole-base scan: each evaluated stage's rows per key, and
        # the scan's per-predicate counts per key (see _mask_pass)
        self.key_rows: dict[int, list[int]] | None = None
        if not first:
            return
        rows = np.asarray(first)
        batch = {q: corr[q][rows] for q in sp.param_quals}
        self.num_segments = len(first)
        self.scratch = _scratch(sp)
        # a stand-in binding: a parameter's value never changes which
        # kernels an array-valued expression launches
        self.env = {q: 0.0 for q in sp.param_quals}
        scan = _whole_base_scan(sp)
        # over a whole-base scan the spine's segments are base rows
        spine = batch if scan is None else {}
        try:
            if sp.descriptor.kind == "exists":
                root = vectorize._eval(
                    self.scratch, sp.plan, spine, self.num_segments
                )
                if scan is not None:
                    self._mask_pass(scan, batch)
                self.flags = np.asarray(self._counts(root)) > 0
            else:
                self._scalar_values(sp, spine, scan, batch)
        except ReproError as exc:
            raise _Refused(f"segmented evaluation failed: {exc}") from None
        self._add_steps(sp, sp.plan)
        # the segmented stages are read by the steps' set-up only
        self.scratch = None

    def evaluates(self, sp, corr) -> bool:
        """Whether this is the body ``sp``'s loop evaluates over ``corr``."""
        return (
            _source(sp) == self.source
            and all(
                corr[q].dtype == values.dtype
                and np.array_equal(corr[q], values)
                for q, values in self.corr.items()
            )
        )

    # -- values --------------------------------------------------------------

    def _mask_pass(self, scan: Scan, keys, result=None, reduce=None) -> None:
        """Per key, the whole-base scan's correlated predicates as one
        mask over the base, evaluated with the key's binding by the
        loop's own ``evaluate`` (so NULL behaves as it does there); one
        key's mask lives at a time.  The running conjunction gives the
        loop's per-stage scan counts (``scan_counts``); a stage's rows
        for the key are its rows whose base row passes (``key_rows``);
        ``reduce`` gets the key's rows of ``result``."""
        base = self.scratch.base_relation(scan)
        ctx = self.scratch.ctx
        correlated = [f for f in scan.filters if referenced_params(f)]
        stages = [
            stage for node_stages in self.scratch.stages.values()
            for stage in node_stages
        ]
        # the scan's own stage: every base row, in base order
        (whole,) = self.scratch.stages[id(scan)]
        self.scan_counts = [[] for _ in correlated]
        self.key_rows = {id(stage): [] for stage in stages}
        for s in range(self.num_segments):
            env = {q: values[s] for q, values in keys.items()}
            mask = None
            for predicate, counts in zip(correlated, self.scan_counts):
                passed = evaluate(predicate, base, ctx, env)
                if not isinstance(passed, np.ndarray):
                    raise _Refused("constant predicate")
                mask = passed if mask is None else mask & passed
                counts.append(int(np.count_nonzero(mask)))
            for stage in stages:
                rows = mask if stage is whole else mask[stage.seg]
                n = int(np.count_nonzero(rows))
                self.key_rows[id(stage)].append(n)
                if stage is result:
                    reduce(s, rows, n)

    def _counts(self, seg_rel) -> list[int]:
        """Per-segment rows of an evaluated stage."""
        if self.key_rows is not None:
            return self.key_rows[id(seg_rel)]
        return np.bincount(seg_rel.seg, minlength=self.num_segments).tolist()

    def _scalar_values(self, sp, batch, scan, keys) -> None:
        """Per-segment scalars, reduced segment by segment exactly as the
        loop's whole-column reduction does (same order, same sums): a
        segment's rows are a slice, or over a whole-base scan the rows
        whose base row passes the key's mask (filters and probe-side
        joins keep probe order, so these come in the loop's order)."""
        projects = self.projects
        node = sp.plan
        while type(node) is Project:
            projects.append(node)
            node = node.child
        self.aggregate = node
        scratch, b = self.scratch, self.num_segments
        child = vectorize._as_segmented(
            vectorize._eval(scratch, node.child, batch, b), b
        )
        env = vectorize._seg_env(batch, child.seg)
        args = []
        for spec in node.aggs:
            arg = None
            if spec.op != "count" or spec.arg is not None:
                arg = evaluate(spec.arg, child.rel, scratch.ctx, env)
                if not isinstance(arg, np.ndarray):
                    arg = np.full(child.rel.num_rows, arg, dtype=np.float64)
            args.append(arg)
        values = [np.empty(b, dtype=np.float64) for _ in node.aggs]

        def reduce(s: int, rows, n: int) -> None:
            for spec, arg, out in zip(node.aggs, args, values):
                out[s] = (
                    n if arg is None
                    else np.nan if n == 0 and spec.op != "count"
                    else kernels.reduce_value(arg[rows], spec.op)
                )

        if scan is not None:
            self._mask_pass(scan, keys, child, reduce)
        elif len(child.seg) and (np.diff(child.seg) < 0).any():
            raise _Refused("unordered segments")
        else:
            ends = np.cumsum(self._counts(child)).tolist()
            for s, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
                reduce(s, slice(lo, hi), hi - lo)
        columns = {
            spec.name: computed_column(spec.name, out)
            for spec, out in zip(node.aggs, values)
        }
        rel = self.aggregate_rel = Relation(columns, b)
        self.project_rels = []
        for project in reversed(projects):
            self.project_rels.append(rel)
            rel = ops.project(scratch.ctx, rel, project.exprs, project.names)
        self.values = rel.first_column().data.astype(np.float64)

    # -- charge steps ----------------------------------------------------------

    def _add_steps(self, sp, node: Plan) -> None:
        """One step per transient node, in the loop's statement order."""
        if not sp.info.is_transient(node):
            return
        for child in node.children():
            self._add_steps(sp, child)
        kind = type(node)
        if kind is Scan:
            step = self._scan_step(sp, node)
        elif kind is Filter:
            step = self._filter_step(sp, node)
        elif kind is Join:
            step = self._join_step(sp, node)
        elif kind is Aggregate:
            step = self._aggregate_step(sp, node)
        else:
            step = self._project_step(sp, node)
        self.steps.append((node, step))

    def _output(self, sp, node: Plan):
        """``(relation, per-segment rows)`` of a node's output; an
        invariant node has the same rows in every segment."""
        if not sp.info.is_transient(node):
            rel = sp.invariant_relation(node)
            return rel, [rel.num_rows] * self.num_segments
        if node is self.aggregate:
            return self.aggregate_rel, [1] * self.num_segments
        seg_rel = self.scratch.stages[id(node)][-1]
        return seg_rel.rel, self._counts(seg_rel)

    def _scan_step(self, sp, node: Scan):
        stages = self.scratch.stages[id(node)]
        counts = (
            self.scan_counts if self.key_rows is not None
            else [self._counts(stage) for stage in stages]
        )
        row_bytes = stages[0].rel.row_bytes
        correlated = [f for f in node.filters if referenced_params(f)]
        templates = [
            _template(f, stages[0].rel, self.env, array_only=True)
            for f in correlated
        ]
        # the loop's access path: an index only through `col = $p` first
        equality = vectorize._equality_correlation(correlated[0])
        fused = sp.fused

        def selections(first: int) -> list:
            # ops.filter_rel_multi over predicates first..: one selection
            # each, or one fused selection over all of them
            rest = list(range(first, len(correlated)))
            chains = [rest] if fused else [[k] for k in rest]
            return [
                ([templates[k] for k in chain], chain[-1])
                for chain in chains if chain
            ]

        after = [selections(0), selections(1)]  # without, with the index

        def step(ctx, sp, s: int) -> _Rows:
            base = sp.base_relation(node)
            index = (
                None if equality is None
                else sp.scan_index(node, base, equality[0])
            )
            if index is not None:
                ctx.index_probes += 1
                kernels.charge_index_search(ctx.device, 1, len(index))
                n = counts[0][s]
                ops.charge_materialize(ctx, row_bytes * n)
                first = 1
            else:
                n, first = base.num_rows, 0
            for chain, last in after[first]:
                out = counts[last][s]
                _charge_select(ctx, chain, n, out, row_bytes, fused)
                n = out
            ctx.operator_done()
            return _Rows(n)

        return step

    def _filter_step(self, sp, node: Filter):
        rel, rows_in = self._output(sp, node.child)
        template = _template(node.predicate, rel, self.env, array_only=True)
        rows_out = self._output(sp, node)[1]
        row_bytes = rel.row_bytes

        def step(ctx, sp, s: int) -> _Rows:
            out = rows_out[s]
            _charge_select(ctx, [template], rows_in[s], out, row_bytes, sp.fused)
            return _Rows(out)

        return step

    def _join_step(self, sp, node: Join):
        # the loop's _t_join: the hash table is built once on the
        # invariant side and probed by the transient side
        if sp.info.is_transient(node.left):
            probe, build = node.left, node.right
            probe_key, build_key = node.left_key, node.right_key
        else:
            probe, build = node.right, node.left
            probe_key, build_key = node.right_key, node.left_key
        probe_rel, probe_rows = self._output(sp, probe)
        template = _template(probe_key, probe_rel, self.env)
        matches = self._output(sp, node)[1]
        probe_bytes = probe_rel.row_bytes

        def step(ctx, sp, s: int) -> _Rows:
            build_rel = sp.invariant_relation(build)
            sp.hoisted_hash(node, build_rel, build_key)
            n, out = probe_rows[s], matches[s]
            for tag, work in template:
                ctx.device.launch(tag, n, work)
            kernels.charge_probe(ctx.device, n, out)
            ops.charge_materialize(ctx, probe_bytes * out)
            ops.charge_materialize(ctx, build_rel.row_bytes * out)
            ctx.operator_done()
            return _Rows(out)

        return step

    def _aggregate_step(self, sp, node: Aggregate):
        rel, rows_in = self._output(sp, node.child)
        specs = [
            (None, False) if spec.op == "count" and spec.arg is None
            else (_template(spec.arg, rel, self.env), spec.op != "count")
            for spec in node.aggs
        ]
        out_bytes = self.aggregate_rel.row_bytes

        def step(ctx, sp, s: int) -> _Rows:
            n = rows_in[s]
            for template, null_when_empty in specs:
                if template is None:
                    continue
                for tag, work in template:
                    ctx.device.launch(tag, n, work)
                if n or not null_when_empty:
                    kernels.charge_reduce(ctx.device, n)
            ops.charge_materialize(ctx, out_bytes)
            ctx.operator_done()
            return _Rows(1)

        return step

    def _project_step(self, sp, node: Project):
        above = [k for k, p in enumerate(self.projects) if p is node]
        if above:
            # above the aggregate: one row per iteration
            rel = self.project_rels[len(self.projects) - 1 - above[0]]
            rows_in = [1] * self.num_segments
        else:
            rel, rows_in = self._output(sp, node.child)
        templates = [
            launch
            for expr in node.exprs if not isinstance(expr, (ColRef, AggRef))
            for launch in _template(expr, rel, None)
        ]

        def step(ctx, sp, s: int) -> _Rows:
            n = rows_in[s]
            for tag, work in templates:
                ctx.device.launch(tag, n, work)
            return _Rows(n)

        return step

    # -- the loop ----------------------------------------------------------------

    def drive(self, rt, sp, vector, marks) -> None:
        """Every iteration's charges in order, then the result vector."""
        index, keys = sp.descriptor.index, self.keys
        n = len(keys)
        if not n:
            return
        rt.subquery_iterations[index] = rt.subquery_iterations.get(index, 0) + n
        node_ids = {id(node): i for i, node in enumerate(rt.nodes)}
        steps = [(node_ids[id(node)], step) for node, step in self.steps]
        governor, cache, ctx = rt.governor, sp.cache, rt.ctx
        seg_of, timed, restore = self.seg_of, rt._timed, rt.restore_pools
        exists = sp.descriptor.kind == "exists"
        if exists:
            results = [(float(flag), True) for flag in self.flags.tolist()]
        else:
            results = [
                (value, value == value) for value in self.values.tolist()
            ]
        # a traced replay opens and closes each iteration span where
        # Runtime.param_env and the store_* calls of the loop do
        tracer = rt.tracer if rt.tracer.enabled else None
        for i in range(n):
            if governor is not None and i > 0:
                governor.iteration_done(sp, i)
            if tracer is not None:
                tracer.end_iteration()
                tracer.begin(f"iteration {i}", "iteration", i=i, subquery=index)
            key = keys[i]
            if cache.get(key) is not None:
                if tracer is not None:
                    tracer.end_iteration(cache_hit=True)
                continue
            s = seg_of[i]
            for node_id, step in steps:
                timed(node_id, step, ctx, sp, s)
            value, valid = results[s]
            cache.put(key, value, valid)
            if tracer is not None:
                tracer.end_iteration(cache_hit=False)
            restore(marks)
        rows = np.asarray(seg_of)
        if exists:
            vector.store_rows(slice(None), self.flags[rows])
        else:
            values = self.values[rows]
            vector.store_rows(slice(None), values, ~np.isnan(values))
