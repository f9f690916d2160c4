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
    session keeps its contexts alive instead, so columns stay resident
    across queries and repeat touches skip the PCIe transfer entirely —
    the transfer-amortization regime the throughput papers identify as
    the thing GPU engines win on.

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
    """Everything one modelled device owns while executing queries.

    The paper's memory manager is one per GPU: the device, the catalog
    view it executes against, pools, raw allocator, column residency
    and the correlated-column index cache.  A fresh context behaves
    exactly as the original one-query-owns-the-device engine; a
    long-lived one — one per device, held by a session (solo) or a
    sharded engine (per shard) — keeps its device memory across
    queries, with :meth:`end_query` between them, :meth:`reset` on a
    data change and :meth:`release` at close.  ``index_cache`` (a
    structural scan fingerprint -> built ``CorrelatedIndex``) is
    injectable so the cost model's probe can read a copy of a
    session's.
    """

    def __init__(
        self,
        catalog: Catalog,
        device: Device,
        options: EngineOptions | None = None,
        index_cache: dict | None = None,
    ):
        self.catalog = catalog
        self.device = device
        self.options = options or EngineOptions()
        self.pools = PoolSet(device)
        self.raw_alloc = RawDeviceAllocator(device)
        self.residency = ColumnResidency(device)
        self.index_cache: dict[tuple, object] = (
            index_cache if index_cache is not None else {}
        )
        # observability side channels — never charge the device clock
        self.index_probes = 0
        # per-node exclusive modelled ns for the vectorized evaluator,
        # keyed by id(plan node); None keeps profiling off (default)
        self.profile_node_ns: dict[int, float] | None = None
        self._profile_child_ns = 0.0

    @property
    def tracer(self):
        """The device's tracer, read at use: a long-lived context follows
        every swap of a per-query tracer onto its device."""
        return self.device.tracer

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

    # -- lifetime of a long-lived context --------------------------------------

    def end_query(self) -> None:
        """Between-queries cleanup.

        Pool *tails* rewind (the reserved high-water survives, so the
        next query reuses the space without re-growing), raw
        allocations are returned, and resident columns stay on the
        device.  Per-node profiling is a one-query switch: it goes off.
        """
        self.pools.reset_tails()
        self.raw_alloc.free_all()
        self.profile_node_ns = None

    def reset(self, catalog: Catalog) -> None:
        """A data change: drop the columns and indexes built from the
        old tables, and execute against ``catalog`` from now on."""
        self.residency.release_all()
        self.index_cache.clear()
        self.catalog = catalog

    def release(self) -> None:
        """Give every byte back to the device (session close)."""
        self.pools.release_all()
        self.raw_alloc.free_all()
        self.residency.release_all()
        self.index_cache.clear()
