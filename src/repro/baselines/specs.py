"""Device-model presets for the comparison systems.

The :class:`~repro.gpu.spec.DeviceSpec` timing model (launch constant +
per-thread-iteration cost + materialization + transfer) describes a CPU
engine just as well as a GPU once the parameters are set accordingly:

* **PostgreSQL** (the paper's v12 on a Xeon E5-2680v4): a single-
  threaded iterator-model executor — ``threads=1`` and a per-tuple cost
  around 100 ns (the well-known interpretive overhead per tuple per
  operator).  "Kernel launch" models per-operator call overhead, and
  there is no PCIe hop, so transfer bandwidth is effectively infinite.
* **MonetDB** (11.37 on 2x14 cores): vectorised execution at a few ns
  per value, parallelised across cores; also no transfer cost.
* **OmniSci** runs on the same V100 as NestGPU but without NestGPU's
  pooled memory manager, so it pays per-operator allocation costs, and
  its general-purpose kernels are modelled slightly slower than the
  hand-tuned primitives of GPUDB/NestGPU.

These parameters reproduce the relative magnitudes of the paper's
Figures 8-10; see EXPERIMENTS.md for the paper-vs-measured ratios.
"""

from __future__ import annotations

from ..gpu import DeviceSpec

_NO_TRANSFER = 1e9  # bytes/ns — CPU engines do not cross PCIe


def postgres_spec() -> DeviceSpec:
    """Single-threaded iterator-model CPU executor (PostgreSQL-like)."""
    return DeviceSpec(
        name="cpu-postgres",
        memory_bytes=128 * 2**30,
        threads=1,
        launch_overhead_ns=2_000.0,  # per-operator call overhead
        iteration_ns=95.0,  # per-tuple interpretive cost
        materialize_ns_per_byte=0.35,
        pcie_bytes_per_ns=_NO_TRANSFER,
        malloc_overhead_ns=2_000.0,
    )


def monetdb_spec() -> DeviceSpec:
    """Vectorised multi-core CPU engine (MonetDB-like): 28 cores."""
    return DeviceSpec(
        name="cpu-monetdb",
        memory_bytes=128 * 2**30,
        threads=28,
        launch_overhead_ns=1_200.0,  # BAT operator dispatch
        iteration_ns=8.0,  # ~0.3 ns/value/core, SIMD vectorised
        materialize_ns_per_byte=0.008,
        pcie_bytes_per_ns=_NO_TRANSFER,
        malloc_overhead_ns=1_200.0,
    )


def omnisci_spec() -> DeviceSpec:
    """OmniSci on the V100: same silicon, less specialised kernels."""
    v100 = DeviceSpec.v100()
    return DeviceSpec(
        name="omnisci-v100",
        memory_bytes=v100.memory_bytes,
        threads=v100.threads,
        launch_overhead_ns=v100.launch_overhead_ns * 1.6,
        iteration_ns=v100.iteration_ns * 1.5,
        materialize_ns_per_byte=v100.materialize_ns_per_byte * 1.4,
        pcie_bytes_per_ns=v100.pcie_bytes_per_ns,
        malloc_overhead_ns=30_000.0,  # LRU buffer manager, not pools
    )
