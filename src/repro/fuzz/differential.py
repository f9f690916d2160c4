"""Differential execution: oracle vs nested vs unnested, per config.

Each query runs through three executors that share no execution code:

* the **row-store oracle** (:class:`repro.baselines.RowstoreEngine`),
  a tuple-at-a-time Volcano interpreter;
* **NestGPU nested** — the paper's iterative subquery loops — once per
  configuration of the five optimizations (pools, index, cache,
  vectorization, invariant extraction);
* **NestGPU unnested** — Kim's rewrite — per configuration as well;
  queries the rewriter cannot handle are recorded as ``skipped``
  (:class:`~repro.errors.UnnestingError` is the expected, documented
  outcome for the paper's Query-5 family);
* **NestGPU auto** — once per query, on the matrix's lead (all-on)
  configuration — exercising the cost model's nested-vs-unnested
  choice and its fallback when the rewriter refuses;
* **sharded legs** — both methods again on a 2- and a 4-device group
  over NVLink (:class:`~repro.core.ShardedEngine`), so placement,
  exchange, the per-shard drive and the coordinator gather and tail
  are held to the same oracle.

Row sets are compared order-insensitively with float tolerance; NaN is
the engines' NULL and is canonicalised to a sentinel so that
NULL == NULL for comparison purposes (SQL would say unknown, but both
engines must *agree* on where NULLs appear).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..baselines.rowstore import RowstoreEngine
from ..core import NestGPU, ShardedEngine
from ..engine import EngineOptions
from ..errors import ReproError, UnnestingError
from ..gpu.spec import InterconnectSpec
from ..storage import Catalog

_NULL = "NULL"
_FLAGS = (
    "use_memory_pools",
    "use_index",
    "use_cache",
    "use_vectorization",
    "use_invariant_extraction",
)
#: the sharded legs: label -> group width (NVLink, default options)
SHARD_LEGS = {"sharded-2": 2, "sharded-4": 4}


def config_matrix(name: str = "full") -> list[tuple[str, EngineOptions]]:
    """Named optimization-configuration matrices.

    * ``full`` — all-on, the fused leg, each optimization individually
      off, the two sharded legs, all-off (10 configurations: every
      single-flag ablation, kernel fusion forced on, and 2- and 4-device
      groups).
    * ``minimal`` — all-on, fused, the sharded legs, and all-off.
    * ``single`` — just the default (all-on) configuration.

    The ``fused`` leg forces :attr:`EngineOptions.fusion` to ``"on"``
    with every optimization at its default, so each fuzzed query is a
    three-way differential — oracle vs unfused vs fused — and any row
    divergence introduced by a fused launch chain fails the campaign.
    The ``sharded-N`` legs (:data:`SHARD_LEGS`) run the default options
    on an N-device group.
    """
    all_on = ("all-on", EngineOptions())
    fused = ("fused", EngineOptions(fusion="on"))
    sharded = [(label, EngineOptions()) for label in SHARD_LEGS]
    all_off = ("all-off", EngineOptions.all_off())
    if name == "single":
        return [all_on]
    if name == "minimal":
        return [all_on, fused, *sharded, all_off]
    if name != "full":
        raise ValueError(f"unknown config matrix {name!r}")
    configs = [all_on, fused]
    for flag in _FLAGS:
        label = "no-" + flag.replace("use_", "").replace("_", "-")
        configs.append((label, EngineOptions(**{flag: False})))
    return [*configs, *sharded, all_off]


def canon_rows(rows, ndigits: int = 6) -> list[tuple]:
    """Order-insensitive canonical form: floats rounded, NaN -> NULL."""
    out = []
    for row in rows:
        canon = []
        for value in row:
            try:
                number = float(value)
            except (TypeError, ValueError):
                canon.append(str(value))
                continue
            if math.isnan(number):
                canon.append(_NULL)
            else:
                canon.append(round(number, ndigits))
        out.append(tuple(canon))
    return sorted(out, key=repr)


def rows_match(a: list[tuple], b: list[tuple],
               rel_tol: float = 1e-6, abs_tol: float = 1e-6) -> bool:
    """Whether two canonical row sets agree within float tolerance."""
    if len(a) != len(b):
        return False
    if a == b:
        return True
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        for va, vb in zip(row_a, row_b):
            if va == vb:
                continue
            if isinstance(va, float) and isinstance(vb, float):
                if math.isclose(va, vb, rel_tol=rel_tol, abs_tol=abs_tol):
                    continue
            return False
    return True


@dataclass
class Outcome:
    """One engine-configuration execution of one query."""

    engine: str  # 'nested' | 'unnested'
    config: str
    status: str  # 'ok' | 'mismatch' | 'skipped' | 'error'
    detail: str = ""
    rows: list = field(default_factory=list)


@dataclass
class Report:
    """The differential verdict for one query."""

    sql: str
    oracle_rows: list
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def mismatches(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.status == "mismatch"]

    @property
    def errors(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.status == "error"]

    @property
    def skipped(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _diff_detail(oracle: list, got: list, limit: int = 3) -> str:
    missing = [r for r in oracle if r not in got][:limit]
    extra = [r for r in got if r not in oracle][:limit]
    parts = [f"oracle={len(oracle)} rows, engine={len(got)} rows"]
    if missing:
        parts.append(f"missing={missing}")
    if extra:
        parts.append(f"extra={extra}")
    return "; ".join(parts)


class DifferentialRunner:
    """Runs queries through oracle + engine matrix and compares rows.

    The engine factory is injectable so the test-suite can wire a
    deliberately broken engine and prove the harness detects it.

    With ``reuse_sessions=True`` each configuration gets one standing
    :class:`~repro.serve.EngineSession` (a sharded one for a sharded
    leg) reused for every query of the campaign — plan cache, resident
    columns and subquery indexes all persist, so the fuzzer doubles as
    a soak test of the session machinery: any state leaking between
    queries shows up as a differential mismatch.  Ignored when a custom
    ``engine_factory`` is injected; the factory then builds every leg.
    """

    def __init__(
        self,
        catalog: Catalog,
        configs: list[tuple[str, EngineOptions]] | None = None,
        engine_factory=None,
        reuse_sessions: bool = False,
    ):
        self.catalog = catalog
        self.configs = configs or config_matrix("full")
        self._engine_factory = engine_factory
        self._reuse = reuse_sessions and engine_factory is None
        self._sessions: dict[str, object] = {}

    def _get_engine(self, config_name: str, options: EngineOptions):
        if self._engine_factory is not None:
            return self._engine_factory(self.catalog, options)
        shards = SHARD_LEGS.get(config_name, 1)
        if not self._reuse:
            if shards == 1:
                return NestGPU(self.catalog, options=options)
            return ShardedEngine(
                self.catalog, options=options, shards=shards,
                interconnect=InterconnectSpec.nvlink(),
            )
        session = self._sessions.get(config_name)
        if session is None:
            from ..serve import EngineSession

            session = EngineSession(
                self.catalog, options=options, shards=shards,
                interconnect="nvlink",
            )
            self._sessions[config_name] = session
        return session

    def close(self) -> None:
        """Dispose any standing sessions (idempotent)."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    def run(self, sql: str) -> Report:
        oracle = canon_rows(RowstoreEngine(self.catalog).execute(sql).rows)
        report = Report(sql=sql, oracle_rows=oracle)
        for position, (config_name, options) in enumerate(self.configs):
            engine = self._get_engine(config_name, options)
            # auto only on the matrix's lead (all-on) config: it runs
            # the cost model's measured plans on top of both methods, so
            # once per query is enough to cover the fallback decision
            modes = ("nested", "unnested", "auto") if position == 0 else (
                "nested", "unnested"
            )
            for mode in modes:
                report.outcomes.append(
                    self._run_one(engine, sql, mode, config_name, oracle)
                )
        return report

    def _run_one(self, engine, sql: str, mode: str, config: str,
                 oracle: list) -> Outcome:
        try:
            result = engine.execute(sql, mode=mode)
        except UnnestingError as exc:
            if mode == "unnested":
                return Outcome(mode, config, "skipped", str(exc))
            return Outcome(mode, config, "error", f"{type(exc).__name__}: {exc}")
        except ReproError as exc:
            return Outcome(mode, config, "error", f"{type(exc).__name__}: {exc}")
        rows = canon_rows(result.rows)
        if rows_match(oracle, rows):
            return Outcome(mode, config, "ok")
        return Outcome(mode, config, "mismatch", _diff_detail(oracle, rows), rows)
