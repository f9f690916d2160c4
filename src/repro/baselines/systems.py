"""The comparison systems of the paper's evaluation (Section V).

All six systems — NestGPU included — expose the same protocol:
``execute(sql) -> QueryResult`` with modelled time in
``result.total_ms``.  What distinguishes them is the *strategy* (nested
vs unnested vs magic-set unnested), the device model, and which of
NestGPU's optimizations are available:

========================  ========  ==========  =====================================
system                    strategy  device      notes
========================  ========  ==========  =====================================
``PostgresNested``        nested    1-core CPU  iterator model, no subquery
                                                optimizations (re-evaluates the whole
                                                inner plan per tuple)
``PostgresUnnested``      unnested  1-core CPU  manual Kim rewrite, still single-
                                                threaded
``MonetDBLike``           unnested  28-core CPU auto-unnesting + push-down of outer
                                                predicates into the inner block
``OmniSciLike``           unnested  V100        no pooled memory manager (raw
                                                per-operator allocation)
``GPUDBPlus``             unnested  V100        GPUDB enhanced with NestGPU's memory
                                                management (the paper's GPUDB+)
``NestGPUSystem``         nested    V100        the paper's system, all optimizations
========================  ========  ==========  =====================================

Every system raises :class:`~repro.errors.UnnestingError` on the
paper's Query 5 except the nested ones — reproducing the paper's point
that the nested method is the only general option.
"""

from __future__ import annotations

from ..engine import EngineOptions
from ..core import NestGPU, QueryResult
from ..gpu import DeviceSpec
from ..storage import Catalog
from .specs import monetdb_spec, omnisci_spec, postgres_spec


class BaselineSystem:
    """Common wrapper: a configured engine plus a display name."""

    name: str = "base"

    def __init__(self, catalog: Catalog, engine: NestGPU, mode: str):
        self.catalog = catalog
        self._engine = engine
        self._mode = mode

    def execute(self, sql: str, tracer=None, metrics=None) -> QueryResult:
        return self._engine.execute(
            sql, mode=self._mode, tracer=tracer, metrics=metrics
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.name})>"


class PostgresNested(BaselineSystem):
    """PostgreSQL executing the nested query as-is (no unnesting).

    Single-threaded iterator execution; the correlated subquery's whole
    plan — including its joins — is re-evaluated for every outer tuple
    (no invariant hoisting, no caching, no index on the correlated
    column).  This is the configuration behind the paper's ~13-minute
    Q2 runs.
    """

    name = "pgSQL(nested)"

    def __init__(self, catalog: Catalog):
        options = EngineOptions(
            use_memory_pools=True,
            use_index=False,
            use_cache=False,
            use_vectorization=False,
            use_invariant_extraction=False,
        )
        engine = NestGPU(catalog, device=postgres_spec(), options=options)
        super().__init__(catalog, engine, "nested")


class PostgresUnnested(BaselineSystem):
    """PostgreSQL running the manually unnested (Kim) rewrite."""

    name = "pgSQL(unnested)"

    def __init__(self, catalog: Catalog):
        options = EngineOptions(
            use_memory_pools=True,
            use_index=False,
            use_cache=False,
            use_vectorization=False,
            use_invariant_extraction=False,
        )
        engine = NestGPU(catalog, device=postgres_spec(), options=options)
        super().__init__(catalog, engine, "unnested")


class MonetDBLike(BaselineSystem):
    """A MonetDB-style columnar CPU engine.

    Auto-unnests, runs vectorised across 28 cores, and — the paper's
    explanation for MonetDB's Q2/Q17 edge — pushes the outer block's
    predicates into the inner query via a magic-set semi-join, so the
    derived table only aggregates groups the outer block can use.
    """

    name = "MonetDB"

    def __init__(self, catalog: Catalog):
        engine = NestGPU(
            catalog, device=monetdb_spec(), options=EngineOptions(),
            magic_sets=True,
        )
        super().__init__(catalog, engine, "unnested")


class OmniSciLike(BaselineSystem):
    """OmniSci (MapD): unnested plans on the GPU, LRU memory manager.

    Pays raw per-operator device allocation instead of NestGPU's pools
    and uses less specialised kernels.
    """

    name = "OmniSci"

    def __init__(self, catalog: Catalog):
        options = EngineOptions(use_memory_pools=False)
        engine = NestGPU(catalog, device=omnisci_spec(), options=options)
        super().__init__(catalog, engine, "unnested")


class GPUDBPlus(BaselineSystem):
    """GPUDB enhanced with NestGPU's memory management (GPUDB+).

    The strongest unnested GPU baseline: the same V100 device model and
    pooled memory as NestGPU, executing Kim-rewritten flat plans.
    """

    name = "GPUDB+"

    def __init__(self, catalog: Catalog, device: DeviceSpec | None = None):
        engine = NestGPU(
            catalog, device=device or DeviceSpec.v100(), options=EngineOptions()
        )
        super().__init__(catalog, engine, "unnested")


class NestGPUSystem(BaselineSystem):
    """NestGPU itself, fixed to the nested method (the paper's headline)."""

    name = "NestGPU"

    def __init__(
        self,
        catalog: Catalog,
        device: DeviceSpec | None = None,
        options: EngineOptions | None = None,
    ):
        engine = NestGPU(
            catalog, device=device or DeviceSpec.v100(),
            options=options or EngineOptions(),
        )
        super().__init__(catalog, engine, "nested")


def all_systems(catalog: Catalog) -> list[BaselineSystem]:
    """The six systems of Figures 8-10, in the paper's legend order."""
    return [
        PostgresNested(catalog),
        PostgresUnnested(catalog),
        MonetDBLike(catalog),
        OmniSciLike(catalog),
        GPUDBPlus(catalog),
        NestGPUSystem(catalog),
    ]
