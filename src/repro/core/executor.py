"""The NestGPU system: the paper's end-to-end query engine.

``NestGPU.execute(sql)`` parses, binds, plans, generates a drive
program, and runs it on the simulated device.  The execution mode is:

* ``'nested'`` — the paper's contribution: correlated subqueries run
  as generated iterative loops (with all five optimizations);
* ``'unnested'`` — Kim's rewrite where legal (raises
  :class:`~repro.errors.UnnestingError` otherwise), for comparison;
* ``'auto'`` — the cost model picks the cheaper of the two, falling
  back to nested when the query cannot be unnested (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import EngineOptions, ExecutionContext
from ..errors import PlanError, UnnestingError
from ..gpu import Device, DeviceSpec, ExecutionStats
from ..obs.tracer import NULL_TRACER
from ..plan import Binder, PlanBuilder, prune_scan_columns, try_exists_semijoin
from ..plan.nodes import Scan
from ..sql import parse
from ..storage import Catalog
from .calibrator import CostCoefficients
from .codegen import DriveProgram, generate_drive_program
from .fusion import (
    FUSION_OFF,
    FusionDecision,
    FusionPlan,
    FusionTuner,
    plan_fingerprint,
)
from .runtime import Runtime, SubqueryProgram
from .subquery import AdaptiveGovernor, AdaptiveSwitch


_MODES = ("auto", "nested", "unnested")


def _check_mode(mode: str) -> str:
    """The one mode check (engine construction and every ``prepare``)."""
    if mode not in _MODES:
        raise PlanError(
            f"unknown mode {mode!r} (expected one of {', '.join(_MODES)})"
        )
    return mode


def _sql_snippet(sql: str, limit: int = 120) -> str:
    """Collapse a statement to a single line short enough for span attrs."""
    flat = " ".join(sql.split())
    if len(flat) > limit:
        flat = flat[: limit - 1] + "…"
    return flat


@dataclass
class QueryResult:
    """The outcome of one query execution."""

    rows: list[tuple]
    column_names: list[str]
    stats: ExecutionStats
    plan_choice: str  # 'nested' | 'unnested' | 'flat'
    drive_source: str
    node_times_ns: dict[int, float] = field(default_factory=dict)
    node_output_rows: dict[int, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    predicted_ms: float | None = None
    # observability (filled by run_prepared; cheap to collect always)
    node_calls: dict[int, int] = field(default_factory=dict)
    node_launches: dict[int, int] = field(default_factory=dict)
    # vectorized-path per-node exclusive ns, keyed by id(plan node)
    # (only populated when tracing/analyzing; see obs.analyze)
    vector_node_ns: dict[int, float] = field(default_factory=dict)
    subquery_iterations: dict[int, int] = field(default_factory=dict)
    subquery_batches: dict[int, int] = field(default_factory=dict)
    subquery_overhead_ns: dict[int, float] = field(default_factory=dict)
    subquery_cache: dict[int, tuple[int, int]] = field(default_factory=dict)
    preload_ns: float = 0.0
    fetch_ns: float = 0.0
    index_probes: int = 0
    pool_restores: int = 0
    # set by the session layer: whether parse→bind→plan was skipped
    # because the plan cache already held this statement
    plan_cache_hit: bool = False
    # mid-query adaptivity: the nested execution was abandoned at a
    # loop boundary and the rows come from the unnested rerun;
    # abandoned_ms is the modelled time the nested attempt sank
    adaptive_switch: bool = False
    abandoned_ms: float = 0.0
    # sharded execution (core.sharded): device-group width, the wall
    # clock of the slowest shard plus the coordinator tail, and the
    # per-device / per-exchange report; solo runs keep the defaults
    shards: int = 1
    makespan_ns: float | None = None
    group_report: dict | None = None

    @property
    def total_ms(self) -> float:
        """Modelled device time in milliseconds (the reported metric)."""
        return self.stats.total_ms

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass
class PreparedQuery:
    """A parsed, planned, code-generated query ready to run."""

    block: object
    plan: object
    program: DriveProgram
    choice: str
    sql: str = ""
    # cost-model prediction for the chosen path (auto mode only)
    predicted_ms: float | None = None
    # when auto chose nested over an unnestable alternative, the loser
    # rides along as the mid-query fallback with its analytic estimate
    # (the adaptive governor's abandon budget)
    fallback: "PreparedQuery | None" = None
    unnested_ms: float | None = None
    # data-path fusion (core.fusion): how this program's fusion state
    # was chosen — off, forced on, analytic, or measured by the tuner
    fusion_decision: FusionDecision = FUSION_OFF


class NestGPU:
    """GPU-accelerated nested query processing (the paper's system)."""

    def __init__(
        self,
        catalog: Catalog,
        device: DeviceSpec | None = None,
        options: EngineOptions | None = None,
        mode: str = "auto",
        magic_sets: bool = False,
        tracer=None,
        metrics=None,
        coefficients: CostCoefficients | None = None,
    ):
        self.catalog = catalog
        self.device_spec = device or DeviceSpec.v100()
        self.options = options or EngineOptions()
        self.mode = _check_mode(mode)
        self.magic_sets = magic_sets
        # observability defaults; both overridable per call
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        # cost-model coefficients: start from the device spec (or an
        # injected — possibly stale — set); a session's Calibrator
        # refits these from observed timings (core.calibrator)
        self.coefficients = coefficients or CostCoefficients.from_spec(
            self.device_spec
        )
        # exact single-table selectivity counting (plan.selectivity);
        # shared by every PlanBuilder this engine constructs so the
        # per-(table, predicate) counts amortize across queries
        from ..plan.selectivity import ExactSelectivity

        self.selectivity = (
            ExactSelectivity(catalog) if self.options.exact_selectivity else None
        )
        # fusion autotuner (options.fusion == 'auto', widening sites only):
        # measured decisions cached per plan shape and coefficient version
        self.fusion_tuner = FusionTuner()

    def set_coefficients(self, coefficients: CostCoefficients) -> None:
        """Swap in a new coefficient set (atomic: one attribute store).

        In-flight ``prepare`` calls finish under whichever set they read
        first; subsequent calls see the new version.  The caller
        (``EngineSession.recalibrate``) is responsible for evicting
        cached auto-mode plans keyed to the old version.
        """
        self.coefficients = coefficients

    # -- public API ---------------------------------------------------------

    def execute(
        self, sql: str, mode: str | None = None, tracer=None, metrics=None,
    ) -> QueryResult:
        """Run a query, returning rows plus modelled execution stats."""
        tracer = self.tracer if tracer is None else tracer
        query_span = None
        if tracer.enabled:
            query_span = tracer.begin("query", "query", sql=_sql_snippet(sql))
        try:
            prepared = self.prepare(sql, mode, tracer=tracer)
            return self.run_prepared(prepared, tracer=tracer, metrics=metrics)
        finally:
            if query_span is not None:
                tracer.end(query_span)

    def prepare(
        self, sql: str, mode: str | None = None, tracer=None, index_cache=None,
    ) -> PreparedQuery:
        """Parse, plan, and generate the drive program without running.

        The one compile pipeline: the statement is lexed, parsed and
        bound exactly once here, and every candidate path is compiled
        from that one bound block (:meth:`_compile_candidate`);
        ``index_cache`` is a session's, for the costing probe to read.
        """
        tracer = self.tracer if tracer is None else tracer
        chosen = _check_mode(mode or self.mode)
        with tracer.span("prepare", "phase", mode=chosen) as span:
            with tracer.span("parse", "phase"):
                stmt = parse(sql)
            with tracer.span("bind", "phase"):
                block = Binder(self.catalog).bind(stmt)
            has_correlated = any(
                descriptor.is_correlated
                for blk in block.all_blocks()
                for descriptor in blk.subqueries
            )
            if not has_correlated:
                return self._compile_candidate(block, "flat", sql, tracer)
            if chosen != "auto":
                return self._compile_candidate(block, chosen, sql, tracer)
            # auto: ask the cost model; nested is the only option when
            # the query cannot be unnested — a refusal that is counted
            # and shown, not silent
            self._count("plan.unnest.attempted")
            try:
                unnested = self._compile_candidate(
                    block, "unnested", sql, tracer
                )
            except UnnestingError as refusal:
                self._count("plan.unnest.refused")
                if span is not None:
                    span.set_attrs(unnest_refused=str(refusal))
                return self._compile_candidate(block, "nested", sql, tracer)
            nested = self._compile_candidate(block, "nested", sql, tracer)
            from .costmodel import predict_paths

            with tracer.span("costmodel", "phase"):
                nested_ms, unnested_ms = predict_paths(
                    self, nested, unnested, index_cache)
        if nested_ms <= unnested_ms:
            nested.predicted_ms = nested_ms
            # the loser rides along: if the nested run turns out slower
            # than predicted, the adaptive governor abandons it and the
            # executor reruns this fallback (budget = its estimate)
            nested.fallback = unnested
            nested.unnested_ms = unnested_ms
            return nested
        unnested.predicted_ms = unnested_ms
        return unnested

    def run_prepared(
        self,
        prepared: PreparedQuery,
        tracer=None,
        metrics=None,
        observed: bool = True,
        ctx: ExecutionContext | None = None,
        span_attrs: dict | None = None,
    ) -> QueryResult:
        """Execute a prepared query on a fresh simulated device.

        ``observed=False`` forces the no-op tracer and skips metrics —
        used by the cost model's internal probe runs so they never
        pollute a trace or the per-query log.

        ``ctx`` injects a caller-owned execution context (a session's
        long-lived device, pools and column residency) instead of
        building a fresh one; the caller is then responsible for
        resetting the device clock before the call, for the
        between-queries cleanup (:meth:`ExecutionContext.end_query`),
        and — when several threads share the context's device — for
        serializing calls (the device is not internally synchronized;
        the session lock is the one the ThreadGuard recognises).
        All side-channel stats below are deltas against the state at
        entry, so a reused context reports per-query numbers.

        ``span_attrs`` adds attributes to the execute-phase span when
        tracing (the concurrent serving engine tags the worker and
        modelled stream ids of the run here).
        """
        if observed:
            tracer = self.tracer if tracer is None else tracer
            metrics = self.metrics if metrics is None else metrics
        else:
            tracer, metrics = NULL_TRACER, None
        if ctx is None:
            device = Device(self.device_spec, tracer=tracer)
            if tracer.enabled:
                tracer.bind_device(device)
            ctx = ExecutionContext(self.catalog, device, self.options)
        else:
            device = ctx.device
        if tracer.enabled:
            ctx.profile_node_ns = {}
        before_total_ns = device.stats.total_ns
        before_restores = ctx.pools.restores
        before_probes = ctx.index_probes
        # mid-query adaptivity: only a real (observed) run of an auto
        # nested plan that carries an unnested twin gets a governor —
        # cost-model probe runs and forced-mode runs never switch
        governor = None
        if (
            observed
            and self.options.adaptive
            and prepared.fallback is not None
            and prepared.unnested_ms is not None
        ):
            governor = AdaptiveGovernor(
                device,
                budget_ms=prepared.unnested_ms,
                hysteresis=self.options.adaptive_hysteresis,
                min_batches=self.options.adaptive_min_batches,
            )
        pool_marks = (
            ctx.pools.mark_all() if self.options.use_memory_pools else None
        )
        effective = prepared
        abandoned_ms = 0.0
        execute_span = None
        if tracer.enabled:
            execute_span = tracer.begin(
                "execute", "phase", path=prepared.choice, **(span_attrs or {}),
            )
        try:
            try:
                with tracer.span("preload", "phase"):
                    self._preload(ctx, prepared.program)
                preload_ns = device.stats.total_ns - before_total_ns
                rel, runtime = self._execute_program(
                    ctx, prepared.program, governor=governor
                )
            except AdaptiveSwitch as switch:
                # the nested attempt lost; its modelled time stays on
                # the clock (sunk cost) and the unnested twin reruns
                # from a rewound allocation state
                effective = prepared.fallback
                abandoned_ms = (
                    device.stats.total_ns - before_total_ns
                ) / 1e6
                if execute_span is not None:
                    execute_span.set_attrs(
                        adaptive_switch=True,
                        abandoned_ms=abandoned_ms,
                        switch_reason=str(switch),
                    )
                    # closes the abandoned subquery/batch spans left
                    # dangling by the exception unwind
                    tracer.end(execute_span)
                    execute_span = tracer.begin(
                        "execute", "phase", path="unnested",
                        adaptive_rerun=True, **(span_attrs or {}),
                    )
                if pool_marks is not None:
                    ctx.pools.restore_all(pool_marks)
                else:
                    ctx.raw_alloc.free_all()
                with tracer.span("preload", "phase"):
                    self._preload(ctx, effective.program)
                rel, runtime = self._execute_program(ctx, effective.program)
        finally:
            if execute_span is not None:
                tracer.end(execute_span)
        rows = rel.decode_rows()
        cache_hits = sum(sp.cache.hits for sp in runtime.subprograms)
        cache_misses = sum(sp.cache.misses for sp in runtime.subprograms)
        result = QueryResult(
            rows=rows,
            column_names=list(rel.columns),
            stats=device.snapshot(),
            plan_choice=effective.choice,
            drive_source=effective.program.source,
            node_times_ns=dict(runtime.node_times_ns),
            node_output_rows=dict(runtime.node_output_rows),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            predicted_ms=prepared.predicted_ms,
            node_calls=dict(runtime.node_calls),
            node_launches=dict(runtime.node_launches),
            vector_node_ns=dict(ctx.profile_node_ns or {}),
            subquery_iterations=dict(runtime.subquery_iterations),
            subquery_batches=dict(runtime.subquery_batches),
            subquery_overhead_ns=dict(runtime.subquery_overhead_ns),
            subquery_cache={
                sp.descriptor.index: (sp.cache.hits, sp.cache.misses)
                for sp in runtime.subprograms
            },
            preload_ns=preload_ns,
            fetch_ns=runtime.fetch_ns,
            index_probes=ctx.index_probes - before_probes,
            pool_restores=ctx.pools.restores - before_restores,
            adaptive_switch=effective is not prepared,
            abandoned_ms=abandoned_ms,
        )
        if metrics is not None:
            self._record_metrics(metrics, prepared, result)
        return result

    def drive_source(self, sql: str, mode: str | None = None) -> str:
        """The generated drive program for a query (for inspection)."""
        return self.prepare(sql, mode).program.source

    def explain(
        self, sql: str, mode: str | None = None, analyze: bool = False,
    ) -> str:
        """A readable account of how a query would execute: the chosen
        path, the outer plan tree, and every subquery plan with its
        transient/invariant marking.

        ``analyze=True`` *runs* the query and annotates the trees with
        measured per-operator modelled time, output rows, kernel
        launches and per-subquery loop statistics (EXPLAIN ANALYZE).
        """
        if analyze:
            from ..obs.analyze import explain_analyze

            tracer = self.tracer if self.tracer.enabled else None
            return explain_analyze(self, sql, mode, tracer=tracer).render()
        return self.explain_prepared(self.prepare(sql, mode))

    def explain_prepared(self, prepared: PreparedQuery) -> str:
        """EXPLAIN rendered from an already-compiled query."""
        from ..plan.invariants import mark_invariants
        from ..plan.nodes import explain as explain_plan

        lines = [f"execution path: {prepared.choice}"]
        decision = prepared.fusion_decision
        if decision.source != "off":
            lines.append(f"fusion: {decision.describe()}")
            if prepared.program.fusion is not None:
                for site in prepared.program.fusion.describe():
                    lines.append(f"  fused {site}")
        lines += ["", "outer plan:"]
        lines.append(explain_plan(prepared.plan))
        for k, spec in enumerate(prepared.program.specs):
            descriptor = spec.descriptor
            lines.append("")
            lines.append(
                f"subquery #{k} ({descriptor.kind}"
                f"{', correlated on ' + ', '.join(descriptor.free_quals) if descriptor.free_quals else ''}):"
            )
            info = mark_invariants(spec.plan)
            depths = self._node_depth_map(spec.plan)
            for node in spec.plan.walk():
                tag = "transient" if info.is_transient(node) else "invariant"
                lines.append(
                    "  " * (depths[id(node)] + 1) + f"[{tag}] {node}"
                )
        return "\n".join(lines)

    # -- internals -----------------------------------------------------------

    def _record_metrics(self, metrics, prepared: PreparedQuery,
                        result: QueryResult) -> None:
        """Fold one run into a :class:`~repro.obs.metrics.MetricsRegistry`."""
        stats = result.stats
        metrics.counter("queries.total").inc()
        metrics.counter(f"queries.path.{result.plan_choice}").inc()
        if result.adaptive_switch:
            metrics.counter("costmodel.adaptive.switches").inc()
            metrics.histogram("costmodel.adaptive.abandoned_ms").observe(
                result.abandoned_ms
            )
        metrics.counter("subquery.cache.hits").inc(result.cache_hits)
        metrics.counter("subquery.cache.misses").inc(result.cache_misses)
        probes = result.cache_hits + result.cache_misses
        if probes:
            metrics.gauge("subquery.cache.hit_ratio.last").set(
                result.cache_hits / probes
            )
        metrics.counter("subquery.iterations").inc(
            sum(result.subquery_iterations.values())
        )
        metrics.counter("subquery.batches").inc(
            sum(result.subquery_batches.values())
        )
        decision = prepared.fusion_decision
        if decision.source != "off":
            metrics.counter(f"codegen.fusion.decision.{decision.source}").inc()
            if decision.fused:
                metrics.counter("codegen.fusion.queries_fused").inc()
        if stats.fused_launches:
            metrics.counter("codegen.fusion.fused_launches").inc(
                stats.fused_launches
            )
            metrics.counter("codegen.fusion.fused_kernels").inc(
                stats.fused_kernels
            )
            metrics.counter("codegen.fusion.saved_launches").inc(
                stats.fused_kernels - stats.fused_launches
            )
        tuner = self.fusion_tuner.stats()
        if tuner["probes"]:
            metrics.gauge("codegen.fusion.tuner.entries").set(tuner["entries"])
            metrics.gauge("codegen.fusion.tuner.hits").set(tuner["hits"])
            metrics.gauge("codegen.fusion.tuner.misses").set(tuner["misses"])
        metrics.counter("kernel.launches").inc(stats.kernel_launches)
        for tag, count in stats.launches_by_tag.items():
            metrics.counter(f"kernel.launches.{tag}").inc(count)
        for tag, time_ns in stats.kernel_time_by_tag.items():
            metrics.counter(f"kernel.time_ms.{tag}").inc(time_ns / 1e6)
        metrics.counter("memory.pool_restores").inc(result.pool_restores)
        metrics.counter("memory.raw_mallocs").inc(stats.malloc_calls)
        metrics.gauge("memory.peak_device_bytes.last").set(
            stats.peak_device_bytes
        )
        metrics.counter("index.probes").inc(result.index_probes)
        metrics.histogram("query.total_ms").observe(result.total_ms)
        metrics.histogram("query.transfer_fraction").observe(
            stats.transfer_fraction
        )
        error_pct = None
        if result.predicted_ms is not None and result.total_ms > 0:
            error_pct = (
                (result.predicted_ms - result.total_ms) / result.total_ms * 100.0
            )
            metrics.histogram("costmodel.abs_error_pct").observe(abs(error_pct))
        metrics.record_query(
            sql=_sql_snippet(prepared.sql),
            path=result.plan_choice,
            adaptive_switch=result.adaptive_switch,
            total_ms=result.total_ms,
            predicted_ms=result.predicted_ms,
            predicted_error_pct=error_pct,
            rows=result.num_rows,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            kernel_launches=stats.kernel_launches,
            transfer_fraction=stats.transfer_fraction,
            index_probes=result.index_probes,
            pool_restores=result.pool_restores,
            raw_mallocs=stats.malloc_calls,
        )

    @staticmethod
    def _node_depth_map(plan) -> dict[int, int]:
        depths: dict[int, int] = {}

        def visit(node, depth):
            depths[id(node)] = depth
            for child in node.children():
                visit(child, depth + 1)

        visit(plan, 0)
        return depths

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _compile_candidate(
        self, block, choice: str, sql: str, tracer,
    ) -> PreparedQuery:
        """Compile one candidate path (flat/nested/unnested) from the
        bound block: plan build, plan-level rewrites, codegen."""
        unnest = choice == "unnested"
        with tracer.span("plan", "phase", path=choice):
            builder = PlanBuilder(
                self.catalog, unnest=unnest, magic_sets=self.magic_sets,
                exact_selectivity=self.selectivity,
            )
            plan = builder.build(block)
            if not unnest:
                # the EXISTS -> semi-join fast path (paper: Q4) is part of
                # the nested engine's plan-level optimizations; re-prune
                # because the rewrite introduces fresh scans
                plan = try_exists_semijoin(plan, block)
                prune_scan_columns(plan, self.catalog)
        with tracer.span("codegen", "phase", path=choice):
            program, decision = self._generate_with_fusion(builder, plan)
        return PreparedQuery(
            block, plan, program, choice, sql=sql, fusion_decision=decision
        )

    def _generate_with_fusion(self, builder, plan):
        """Generate the drive program under ``options.fusion``.

        ``'off'`` emits the historical one-launch-per-primitive program.
        ``'on'`` forces every fusible site through the fused entry
        points.  ``'auto'`` decides at plan time: with every site
        launch-only (core.fusion) fused is never slower, so nothing
        runs.  Only a widening site, whose winner depends on the data,
        generates both variants and asks the :class:`FusionTuner`, which
        measures each on a private device the first time a plan shape
        is seen under the current coefficient version.
        """
        mode = self.options.fusion
        if mode == "off":
            return generate_drive_program(builder, plan), FUSION_OFF
        fusion = FusionPlan()
        fused_program = generate_drive_program(builder, plan, fusion=fusion)
        sites = len(fusion.sites)
        if sites == 0:
            return fused_program, FUSION_OFF  # nothing fused: the plain program
        if mode == "on":
            return fused_program, FusionDecision(
                source="forced", fused=True, sites=sites
            )
        if mode != "auto":
            raise ValueError(f"unknown fusion mode {mode!r}")
        if self.device_spec.launch_overhead_ns > 0 and not any(
            site.widening for site in fusion.sites
        ):
            return fused_program, FusionDecision(
                source="analytic", fused=True, sites=sites
            )
        unfused_program = generate_drive_program(builder, plan)
        decision = self.fusion_tuner.decide(
            plan_fingerprint(plan),
            self.coefficients.version,
            sites,
            lambda: self._measure_program(unfused_program),
            lambda: self._measure_program(fused_program),
        )
        return (fused_program if decision.fused else unfused_program), decision

    def _measure_program(self, program: DriveProgram) -> float:
        """Modelled end-to-end ns of one candidate program on a private
        device (the tuner's benchmark harness; never observed)."""
        device = Device(self.device_spec)
        ctx = ExecutionContext(self.catalog, device, self.options)
        self._preload(ctx, program)
        self._execute_program(ctx, program)
        return device.stats.total_ns

    def _execute_program(self, ctx, program: DriveProgram, governor=None):
        fused = program.fusion is not None
        subprograms = [
            SubqueryProgram(
                ctx, spec.descriptor, spec.plan, self.options.vector_batch,
                fused=fused,
            )
            for spec in program.specs
        ]
        runtime = Runtime(ctx, program.nodes, subprograms)
        runtime.governor = governor
        return program.drive(runtime), runtime

    def _preload(self, ctx, program: DriveProgram) -> None:
        """Preload base columns, inner-most subquery levels first and
        smaller tables first within a level (paper Section III-C)."""
        ctx.preload(preload_columns(self.catalog, program))


def preload_columns(catalog: Catalog, program: DriveProgram) -> list[tuple[str, str]]:
    """The ordered ``(table, column)`` preload set of a drive program.

    Shared by the executor's preload phase and the scheduler's
    admission control, which sums the same set's bytes to estimate a
    query's device working set before letting it run.
    """
    levels: list[list[tuple[str, str]]] = []

    def collect(plan, depth: int) -> None:
        while len(levels) <= depth:
            levels.append([])
        for node in plan.walk():
            if isinstance(node, Scan):
                for column in node.columns or []:
                    levels[depth].append((node.table, column))

    collect_plans = [(spec.plan, 1) for spec in program.specs]
    outer_nodes = [n for n in program.nodes if isinstance(n, Scan)]
    levels.append([])
    for node in outer_nodes:
        for column in node.columns or []:
            levels[0].append((node.table, column))
    for plan, depth in collect_plans:
        collect(plan, depth)
    ordered: list[tuple[str, str]] = []
    seen = set()
    for level in reversed(levels):
        level_sorted = sorted(
            set(level), key=lambda tc: catalog.table(tc[0]).num_rows
        )
        for key in level_sorted:
            if key not in seen:
                seen.add(key)
                ordered.append(key)
    return ordered
