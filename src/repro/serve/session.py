"""The engine session: one device, many queries.

``NestGPU.execute`` is the paper's single-query discipline: every call
builds a fresh simulated device, re-plans the statement, re-preloads
every base column, and throws all of it away with the result.  A
:class:`EngineSession` inverts that ownership for served workloads:

* the **device** (and its memory accounting) lives as long as the
  session — the clock is reset per query, the memory is not;
* the **pools** keep their reserved high-water across queries, so
  iteration space is grown once per session, not once per query;
* **column residency** persists with LRU eviction against modelled
  HBM capacity — a repeat touch of ``lineitem.l_partkey`` costs
  nothing instead of a PCIe transfer;
* **correlated-column indexes** built by one query are reused by the
  next query with the same scan fingerprint;
* the **plan cache** (:mod:`repro.serve.plancache`) skips
  parse → bind → plan → unnest-decision for repeated statements.

Per-query modelled totals stay comparable with the solo engine: the
first query of a fresh session is bit-identical to
``NestGPU.execute`` on a fresh engine, and later queries differ only
by the work the session genuinely amortised away.
"""

from __future__ import annotations

import re

from ..core import NestGPU, PreparedQuery, QueryResult, ShardedEngine
from ..core.calibrator import Calibrator, CostCoefficients
from ..core.executor import _sql_snippet, _sum_dicts, preload_columns
from ..engine import EngineOptions, ExecutionContext
from ..gpu import Device, DeviceSpec
from ..gpu.spec import InterconnectSpec
from ..obs.tracer import NULL_TRACER
from ..storage import Catalog
from .plancache import PlanCache
from .threadguard import OwnedLock

_PARAM_RE = re.compile(r"\$(\d+)")

_SESSION_COUNTER = [0]


def render_param(value) -> str:
    """A Python value as a SQL literal for parameter substitution."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise TypeError(
        f"cannot bind a {type(value).__name__} parameter; "
        "use int, float, bool or str"
    )


class SessionPrepared:
    """A prepared statement: a SQL template with ``$1..$n`` holes.

    Binding substitutes SQL literals into the template; the resulting
    statement flows through the session's plan cache, whose key folds
    in the parameter signature (the tuple of bound Python types), so a
    template bound twice with the same values plans exactly once.
    """

    def __init__(self, session: "EngineSession", template: str,
                 mode: str | None = None):
        numbers = sorted({int(n) for n in _PARAM_RE.findall(template)})
        if numbers != list(range(1, len(numbers) + 1)):
            raise ValueError(
                f"parameter placeholders must be $1..$n without gaps, "
                f"got {['$%d' % n for n in numbers]}"
            )
        self.session = session
        self.template = template
        self.mode = mode
        self.num_params = len(numbers)

    def bind(self, *params) -> str:
        if len(params) != self.num_params:
            raise ValueError(
                f"statement takes {self.num_params} parameters, "
                f"{len(params)} given"
            )
        return _PARAM_RE.sub(
            lambda m: render_param(params[int(m.group(1)) - 1]), self.template
        )

    def signature(self, params: tuple) -> tuple:
        return tuple(type(p).__name__ for p in params)

    def execute(self, *params) -> QueryResult:
        return self.session.execute(
            self.bind(*params), mode=self.mode,
            param_sig=self.signature(params),
        )


class EngineSession:
    """Long-lived execution state shared by every query it serves.

    Thread safety: the session carries an :class:`OwnedLock` (``lock``)
    and every method that touches device state — :meth:`run`,
    :meth:`close`, :meth:`stats`, catalog-version invalidation —
    acquires it, so one session can serve many worker threads with the
    device's single-threaded contract intact.  *Planning* deliberately
    stays outside the critical section: :meth:`lookup_or_prepare`
    touches only the internally-locked plan cache and the read-only
    catalog, which is where real wall-clock concurrency lives (the
    modelled device, like a real stream, executes one query at a
    time).  The lock is re-entrant, so single-threaded callers and the
    :class:`~repro.serve.concurrent.AsyncEngine`'s inline drain are
    unchanged — at one worker the modelled totals stay bit-identical.
    """

    def __init__(
        self,
        catalog: Catalog,
        device: DeviceSpec | None = None,
        options: EngineOptions | None = None,
        mode: str = "auto",
        tracer=None,
        metrics=None,
        plan_cache_capacity: int = 128,
        coefficients: CostCoefficients | None = None,
        calibration: bool = True,
        shards: int = 1,
        interconnect: InterconnectSpec | str | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.catalog = catalog
        self.lock = OwnedLock()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.shards = shards
        self.sharded: ShardedEngine | None = None
        if shards > 1:
            # the session owns a device *group*: the sharded engine's
            # per-shard contexts are the session's states
            if isinstance(interconnect, str):
                interconnect = InterconnectSpec.from_name(interconnect)
            self.sharded = ShardedEngine(
                catalog, device=device, options=options, mode=mode,
                shards=shards, interconnect=interconnect,
                tracer=self.tracer, metrics=metrics,
                coefficients=coefficients,
            )
            self.engine = self.sharded.planner
            self.states = self.sharded.shard_states
            # the calibrator fits single-device kernel samples; a group's
            # interleaved clocks would poison the fit
            calibration = False
        else:
            self.engine = NestGPU(
                catalog, device=device, options=options, mode=mode,
                tracer=self.tracer, metrics=metrics,
                coefficients=coefficients,
            )
            self.states = [ExecutionContext(
                catalog, Device(self.engine.device_spec, tracer=self.tracer),
                self.engine.options,
            )]
        #: the coordinator (shard 0) of a group; the device of a solo session
        self.device = self.states[0].device
        # the feedback loop's observe side: the session device samples
        # every kernel/transfer/materialization into the calibrator,
        # and recalibrate() refits the cost-model coefficients from them
        self.calibrator = (
            Calibrator(self.engine.device_spec.threads) if calibration else None
        )
        if self.calibrator is not None:
            self.device.sampler = self.calibrator
        self.plan_cache = PlanCache(plan_cache_capacity)
        self.queries_run = 0
        self._catalog_version = catalog.version
        self._closed = False
        _SESSION_COUNTER[0] += 1
        self.session_id = _SESSION_COUNTER[0]
        self._session_span = None
        if self.tracer.enabled:
            self.tracer.bind_device(self.device)
            self._session_span = self.tracer.begin(
                f"session #{self.session_id}", "session",
                session=self.session_id,
            )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the session's device state (idempotent)."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            for state in self.states:
                state.release()
            if self._session_span is not None:
                self.tracer.end(
                    self._session_span, queries=self.queries_run
                )
                self._session_span = None

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- planning --------------------------------------------------------

    def _check_catalog(self) -> None:
        """Invalidate everything derived from table data on reloads."""
        if self.catalog.version == self._catalog_version:
            return
        # invalidation touches device state (residency), so it runs in
        # the critical section even when reached from the planning path
        with self.lock:
            if self.catalog.version == self._catalog_version:
                return
            self._catalog_version = self.catalog.version
            self.plan_cache.evict()
            if self.sharded is None:
                self.states[0].reset(self.catalog)
            else:
                # the sharded engine resets each shard with a fresh view
                # (its partitioned forms are rebuilt on demand)
                self.sharded._sync_catalog()

    def lookup_or_prepare(
        self, sql: str, mode: str | None = None, param_sig: tuple = (),
    ) -> tuple[PreparedQuery, bool]:
        """The plan-cache probe: ``(prepared, was_hit)``.

        A miss pays the full parse → bind → plan → codegen pass (and,
        in auto mode, the cost model's probe runs) and populates the
        cache; a hit skips all of it.
        """
        self._check_catalog()
        cache_mode = mode or self.engine.mode
        if self.sharded is not None:
            # namespace the key: a sharded plan (placements, exchanges)
            # is not interchangeable with a solo plan for the same SQL
            cache_mode = f"{cache_mode}@x{self.shards}"
        key = PlanCache.key(sql, cache_mode, param_sig)
        prepared = self.plan_cache.get(key)
        if prepared is not None:
            return prepared, True
        if self.sharded is not None:
            prepared = self.sharded.prepare(sql, mode)
        else:
            prepared = self.engine.prepare(
                sql, mode, index_cache=self.states[0].index_cache
            )
        self.plan_cache.put(key, prepared)
        return prepared, False

    def prepare_statement(
        self, template: str, mode: str | None = None,
    ) -> SessionPrepared:
        """A client-side prepared statement over ``$1..$n`` holes."""
        return SessionPrepared(self, template, mode)

    # -- cost-model feedback ----------------------------------------------

    def recalibrate(self, min_samples: int = 32) -> dict | None:
        """Refit cost-model coefficients from observed device timings.

        The predict → observe → correct loop's correct step: least
        squares over the kernel/transfer samples the session device
        collected (Eq. (1)'s ``C`` and ``K``, the PCIe bandwidth, the
        materialization rate).  On success the engine's coefficient set
        is swapped atomically (version bumped) and every mode-sensitive
        (``auto``) plan cache entry is evicted, because the
        nested-vs-unnested choice baked into those plans may flip under
        the new coefficients; so is every plan holding a tuned fusion
        program.  This is the one handler of a refit.

        Returns a summary dict, or ``None`` when the sample window is
        too small to fit (the engine keeps its current coefficients).
        """
        with self.lock:
            if self._closed:
                raise RuntimeError("session is closed")
            if self.calibrator is None:
                raise RuntimeError("session was built with calibration=False")
            fitted = self.calibrator.fit(
                self.engine.coefficients, min_samples=min_samples
            )
            if fitted is None:
                return None
            self.engine.set_coefficients(fitted)
            # the refit may flip an auto-mode path choice; forced
            # nested/unnested plans never asked the cost model
            evicted = self.plan_cache.evict(lambda key, _: key[1] == "auto")
            # a tuned program was measured under the old coefficients
            # (the tuner re-measures a stale version on its own, but a
            # cached plan would never ask it again)
            fusion_evicted = self.plan_cache.evict(
                lambda _, prepared: prepared.fusion_decision.source == "tuned"
            )
            if self.metrics is not None:
                self.metrics.counter("costmodel.recalibrations").inc()
                self.metrics.counter("costmodel.plans_invalidated").inc(
                    evicted + fusion_evicted
                )
                self.metrics.gauge("costmodel.version").set(fitted.version)
            return {
                "coefficients": fitted,
                "version": fitted.version,
                "plan_cache_evicted": evicted,
                "fusion_plans_evicted": fusion_evicted,
                "samples": self.calibrator.sample_counts(),
            }

    # -- execution -------------------------------------------------------

    def execute(
        self, sql: str, mode: str | None = None, param_sig: tuple = (),
    ) -> QueryResult:
        """Run one statement against the session's device."""
        tracer = self.tracer
        query_span = None
        if tracer.enabled:
            query_span = tracer.begin(
                "query", "query",
                sql=_sql_snippet(sql), session=self.session_id,
                seq=self.queries_run,
            )
        try:
            prepared, hit = self.lookup_or_prepare(sql, mode, param_sig)
            if query_span is not None:
                query_span.set_attrs(plan_cache="hit" if hit else "miss")
            return self.run(prepared, plan_cache_hit=hit)
        finally:
            if query_span is not None:
                tracer.end(query_span)

    def run(
        self,
        prepared: PreparedQuery,
        plan_cache_hit: bool = False,
        span_attrs: dict | None = None,
        tracer=None,
    ) -> QueryResult:
        """Execute a prepared query on the session's standing state.

        The device *clock* is reset first (per-query ``total_ns`` never
        includes a predecessor's time); the device *memory* — resident
        columns, pool high-water — is deliberately carried over.  The
        whole run holds the session lock: the device, like one real
        GPU stream, executes a single query at a time.

        ``span_attrs`` is attached to the execute-phase span when
        tracing — the concurrent engine tags worker/stream ids here.

        ``tracer`` overrides the session tracer for this one query:
        every device emits its kernel/transfer leaves into the private
        tracer for the duration of the run and is re-bound to the
        session tracer afterwards.  This is how a traced query on an
        otherwise untraced serving session gets its own span tree
        without perturbing any neighbour (the swap happens under the
        session lock, which already serializes device access).
        """
        with self.lock:
            if self._closed:
                raise RuntimeError("session is closed")
            self._check_catalog()
            query_tracer = self.tracer if tracer is None else tracer
            previous = [state.device.tracer for state in self.states]
            for state in self.states:
                state.device.tracer = query_tracer
            try:
                if self.sharded is not None:
                    # the group run resets and cleans up its own states
                    result = self.sharded.run_prepared(
                        prepared, tracer=query_tracer, metrics=self.metrics,
                    )
                else:
                    self.device.reset(rebase_peak=True)
                    try:
                        result = self.engine.run_prepared(
                            prepared, tracer=query_tracer,
                            metrics=self.metrics, ctx=self.states[0],
                            span_attrs=span_attrs,
                        )
                    finally:
                        # rewind pool tails / return raw allocations, keep
                        # residency; any modelled cost of this cleanup lands
                        # after the result's snapshot and is wiped by the
                        # next query's clock reset
                        self.states[0].end_query()
            finally:
                for state, prev in zip(self.states, previous):
                    state.device.tracer = prev
                if tracer is not None and self.tracer.enabled:
                    self.tracer.bind_device(self.device)
            result.plan_cache_hit = plan_cache_hit
            self.queries_run += 1
            if self.metrics is not None:
                self._record_session_metrics(result)
            return result

    # -- inspection (REPL parity with NestGPU) -----------------------------

    def explain(self, sql: str, mode: str | None = None,
                analyze: bool = False) -> str:
        return (self.sharded or self.engine).explain(sql, mode, analyze=analyze)

    def drive_source(self, sql: str, mode: str | None = None) -> str:
        return (self.sharded or self.engine).drive_source(sql, mode)

    # -- admission support ------------------------------------------------

    def working_set_bytes(self, prepared: PreparedQuery) -> int:
        """The device bytes a query's base columns demand.

        The same ``(table, column)`` set the executor preloads, summed
        — the scheduler's admission control compares it against the
        modelled HBM capacity before letting the query run.

        For a sharded plan this is the *widest shard's* demand — each
        device admits only its own placements, so per-device capacity
        is the binding constraint, not the group total.
        """
        return max(
            sum(
                state.catalog.table(table).column(column).nbytes
                for table, column in preload_columns(
                    state.catalog, prepared.program
                )
            )
            for state in self.states
        )

    @property
    def device_capacity_bytes(self) -> int:
        return self.device.spec.memory_bytes

    # -- observability ----------------------------------------------------

    def _record_session_metrics(self, result: QueryResult) -> None:
        metrics = self.metrics
        metrics.counter("session.queries").inc()
        if result.plan_cache_hit:
            metrics.counter("plan_cache.hits").inc()
        else:
            metrics.counter("plan_cache.misses").inc()
        metrics.gauge("plan_cache.hit_ratio").set(self.plan_cache.hit_ratio)
        metrics.gauge("plan_cache.entries").set(len(self.plan_cache))
        standing = self._standing()
        metrics.gauge("residency.resident_bytes").set(standing["resident_bytes"])
        metrics.gauge("residency.resident_columns").set(
            standing["resident_columns"]
        )
        metrics.gauge("residency.evictions").set(
            standing["residency_evictions"]
        )
        metrics.gauge("pool.high_water_bytes").set(
            sum(standing["pool_high_water"].values())
        )
        metrics.histogram("session.preload_ms").observe(
            result.preload_ns / 1e6
        )

    def _standing(self) -> dict:
        """The standing device state, summed over the session's states."""
        states = self.states
        return {
            "resident_columns": sum(len(s.residency) for s in states),
            "resident_bytes": sum(s.residency.resident_bytes for s in states),
            "residency_evictions": sum(s.residency.evictions for s in states),
            "pool_high_water": _sum_dicts(
                s.pools.high_water() for s in states
            ),
            "index_cache_entries": sum(len(s.index_cache) for s in states),
            "device_in_use_bytes": sum(
                s.device.memory_in_use for s in states
            ),
        }

    def stats(self) -> dict:
        """A JSON-friendly summary of the session's standing state."""
        with self.lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        sharded = None
        if self.sharded is not None:
            sharded = {
                "shards": self.shards,
                "interconnect": self.sharded.interconnect.name,
                "per_device": [
                    {
                        "resident_bytes": state.residency.resident_bytes,
                        "resident_columns": len(state.residency),
                        "in_use_bytes": state.device.memory_in_use,
                        "peak_bytes": state.device.stats.peak_device_bytes,
                    }
                    for state in self.states
                ],
                "interconnect_bytes": self.sharded.group.interconnect_bytes(),
            }
        return {
            "session_id": self.session_id,
            "queries_run": self.queries_run,
            "shards": self.shards,
            "sharded": sharded,
            "plan_cache": self.plan_cache.stats(),
            **self._standing(),
            "device_capacity_bytes": self.device_capacity_bytes,
            "cost_model": {
                "version": self.engine.coefficients.version,
                "source": self.engine.coefficients.source,
                "samples": (
                    self.calibrator.sample_counts()
                    if self.calibrator is not None
                    else None
                ),
            },
        }
