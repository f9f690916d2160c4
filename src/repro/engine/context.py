"""Execution context: device, memory pools, options, column residency."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceMemoryError
from ..gpu import Device, PoolSet, RawDeviceAllocator
from ..storage import Catalog, Column


@dataclass
class EngineOptions:
    """Feature switches for the paper's optimizations.

    Defaults enable everything (the full NestGPU configuration);
    baselines and ablation benches flip individual switches.
    """

    use_memory_pools: bool = True
    use_index: bool = True
    use_cache: bool = True
    use_vectorization: bool = True
    use_invariant_extraction: bool = True
    vector_batch: int = 1024
    # threshold for choosing to build a sorted index over an inner
    # correlated column: expected iterations * table size must beat
    # sort cost (see core.indexing)
    index_min_iterations: int = 8
    # count single-table selectivities exactly at optimization time
    # instead of the PlanBuilder heuristics (plan.selectivity)
    exact_selectivity: bool = True
    # mid-query re-planning: abandon a running nested loop when the
    # extrapolated remaining cost exceeds the unnested estimate by the
    # hysteresis factor, and rerun unnested (core.subquery)
    adaptive: bool = True
    # data-path kernel fusion in codegen (core.fusion): "off" keeps the
    # one-launch-per-primitive pipeline (and pre-fusion modelled totals
    # bit-identical), "on" forces every fusible site fused, "auto"
    # fuses at plan time when every site is launch-only and lets the
    # FusionTuner measure only programs with a widening site
    fusion: str = "off"

    @staticmethod
    def all_off() -> "EngineOptions":
        return EngineOptions(
            use_memory_pools=False,
            use_index=False,
            use_cache=False,
            use_vectorization=False,
            use_invariant_extraction=False,
            exact_selectivity=False,
            adaptive=False,
        )


class ColumnResidency:
    """Which base-table columns live on the device, with eviction.

    One instance per :class:`ExecutionContext` reproduces the original
    per-query behaviour (everything is released at end of query).  A
    session injects a long-lived instance instead, so columns stay
    resident across queries and repeat touches skip the PCIe transfer
    entirely — the transfer-amortization regime the throughput papers
    identify as the thing GPU engines win on.

    Eviction is least-recently-*used*: a touch is evidence of reuse,
    so it moves the column to the back of the eviction order.

    Like the device it allocates on, residency is not internally
    synchronized; concurrent serving mutates it only under the session
    lock (``_GUARDED_METHODS`` lists the entry points a ThreadGuard
    checks).
    """

    _GUARDED_METHODS = ("ensure", "admit", "release_all")

    def __init__(self, device: Device):
        self.device = device
        # key -> bytes, in eviction order (dicts keep insertion order)
        self._resident: dict[tuple[str, str], int] = {}
        # observability side channels (never charge the clock)
        self.evictions = 0
        self.transfers = 0
        self.touches = 0  # touches that found the column resident

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def resident_bytes(self) -> int:
        return sum(self._resident.values())

    def ensure(self, key: tuple[str, str], nbytes: int) -> bool:
        """Make ``key`` resident; returns True if a transfer was paid.

        The first touch pays the PCIe transfer and the allocation.  If
        the device is full, resident columns are evicted (subsequent
        touches pay the transfer again — the paper's on-demand loading
        mode for memory-constrained devices).
        """
        if not self.admit(key, nbytes):
            return False
        self.device.transfer_h2d(nbytes)
        self.transfers += 1
        return True

    def admit(self, key: tuple[str, str], nbytes: int) -> bool:
        """Register ``key`` as resident *without* charging a transfer.

        The sharded executor's exchange phase uses this: a
        hash-repartitioned column arrives over the peer interconnect
        (already charged on both endpoint clocks by the
        :class:`~repro.gpu.group.DeviceGroup`), so only the allocation
        — and eviction pressure — is accounted here.  Returns True if
        the column was newly admitted.
        """
        if key in self._resident:
            self.touches += 1
            self._resident[key] = self._resident.pop(key)
            return False
        while True:
            try:
                self.device.alloc(nbytes)
                break
            except DeviceMemoryError:
                if not self._resident:
                    raise
                victim = next(iter(self._resident))
                self.device.free(self._resident.pop(victim))
                self.evictions += 1
        self._resident[key] = nbytes
        return True

    def release_all(self) -> None:
        """Free every resident column (end of query / session)."""
        for nbytes in self._resident.values():
            self.device.free(nbytes)
        self._resident.clear()


class ExecutionContext:
    """Shared state for one query execution on the simulated device.

    Every collaborator a query needs — pools, raw allocator, column
    residency, the cross-query index cache — is injectable.  Left to
    default, the context builds private instances and behaves exactly
    as the original one-query-owns-the-device engine.  A session
    (:class:`repro.serve.EngineSession`) injects its long-lived
    instances so those survive the context.
    """

    def __init__(
        self,
        catalog: Catalog,
        device: Device,
        options: EngineOptions | None = None,
        pools: PoolSet | None = None,
        raw_alloc: RawDeviceAllocator | None = None,
        residency: ColumnResidency | None = None,
        index_cache: dict | None = None,
    ):
        self.catalog = catalog
        self.device = device
        self.options = options or EngineOptions()
        self.tracer = device.tracer
        self.pools = pools if pools is not None else PoolSet(device)
        self.raw_alloc = (
            raw_alloc if raw_alloc is not None else RawDeviceAllocator(device)
        )
        self.residency = (
            residency if residency is not None else ColumnResidency(device)
        )
        # observability side channels — never charge the device clock
        self.index_probes = 0
        # per-node exclusive modelled ns for the vectorized evaluator,
        # keyed by id(plan node); None keeps profiling off (default)
        self.profile_node_ns: dict[int, float] | None = None
        self._profile_child_ns = 0.0
        # caches for the paper's optimizations (filled by repro.core);
        # the index cache maps a structural scan fingerprint to a built
        # CorrelatedIndex so a session can reuse it across queries
        self.invariant_cache: dict[int, object] = {}
        self.index_cache: dict[tuple, object] = (
            index_cache if index_cache is not None else {}
        )
        self.subquery_cache: dict[tuple, object] = {}
        self.subquery_cache_hits = 0
        self.subquery_cache_misses = 0

    # -- column residency ----------------------------------------------------

    def load_column(self, table_name: str, column_name: str) -> Column:
        """Ensure a base column is on the device; returns the column."""
        column = self.catalog.table(table_name).column(column_name)
        self.residency.ensure((table_name, column_name), column.nbytes)
        return column

    def preload(self, columns: list[tuple[str, str]]) -> None:
        """Move a set of base columns to the device up front.

        The paper's priority rules (inner-most level first, smaller
        tables first within a level) are applied by the caller; here we
        just honour the order given.
        """
        for table_name, column_name in columns:
            self.load_column(table_name, column_name)

    # -- intermediate allocations ----------------------------------------------

    def alloc_intermediate(self, nbytes: int) -> None:
        """Charge an intermediate-table allocation.

        Pooled mode bumps the intermediate pool; without pools the raw
        allocator pays the modelled malloc overhead per call.
        """
        if self.options.use_memory_pools:
            self.pools.intermediate.alloc(nbytes)
        else:
            self.raw_alloc.alloc(nbytes)

    def alloc_scratch(self, nbytes: int) -> None:
        """Charge an inter-kernel scratch allocation."""
        if self.options.use_memory_pools:
            self.pools.inter_kernel.alloc(nbytes)
        else:
            self.raw_alloc.alloc(nbytes)

    def operator_done(self) -> None:
        """Per-operator epilogue: inter-kernel scratch is reclaimed."""
        if self.options.use_memory_pools:
            self.pools.clear_inter_kernel()

    def end_query(self) -> None:
        """Between-queries cleanup for a session-owned context.

        Pool *tails* rewind (the reserved high-water survives, so the
        next query reuses the space without re-growing), raw
        allocations are returned, and resident columns stay on the
        device.
        """
        self.pools.reset_tails()
        self.raw_alloc.free_all()
