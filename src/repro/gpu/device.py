"""The simulated GPU device: clock, memory accounting, kernel launches.

The device computes nothing itself — kernels (see
:mod:`repro.gpu.kernels`) do real numpy work on the host while charging
the device clock according to the spec's timing model.  This keeps the
results exact and the reported times analytical, which is the
substitution documented in DESIGN.md section 2.
"""

from __future__ import annotations

import math

from ..errors import DeviceMemoryError
from ..obs.tracer import NULL_TRACER
from .spec import DeviceSpec
from .stats import ExecutionStats


class _FusionScope:
    """Accumulator for kernel launches absorbed into one fused launch.

    While a scope is open on a device, :meth:`Device.launch` adds its
    iteration count here instead of charging the clock; closing the
    scope charges a single launch of the combined work.
    """

    __slots__ = ("tag", "iterations", "kernels", "elements")

    def __init__(self, tag: str):
        self.tag = tag
        self.iterations = 0.0  # sum of ceil(elements/threads) * work
        self.kernels = 0
        self.elements = 0  # widest absorbed launch, for the trace span


class Device:
    """A simulated GPU accumulating modelled time and memory usage.

    A :class:`~repro.obs.tracer.Tracer` may be attached; every charge
    then also records a leaf span on the modelled clock.  The default
    is the no-op tracer, so untraced runs pay one ``enabled`` check per
    charge and their modelled times are bit-identical.

    Threading contract: the device is **not** internally synchronized
    — per-charge locking would tax the hot path every modelled time is
    calibrated against.  All mutation must come from a single thread
    or happen while holding the owning session's lock; the methods in
    ``_GUARDED_METHODS`` are the mutation entry points a
    :class:`~repro.serve.threadguard.ThreadGuard` instruments to
    enforce that contract in tests.
    """

    #: Mutation entry points, in ThreadGuard's vocabulary: each call
    #: reads and writes the clock/stats/memory accounting.
    _GUARDED_METHODS = (
        "alloc", "free", "launch", "materialize",
        "transfer_h2d", "transfer_d2h", "transfer_peer", "reset",
        "begin_fused", "end_fused",
    )

    def __init__(self, spec: DeviceSpec, tracer=None):
        self.spec = spec
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.stats = ExecutionStats()
        self._in_use = 0
        # optional observer of charged costs (a cost-model Calibrator):
        # receives every kernel/transfer/materialization observation.
        # Like the tracer, None keeps the hot path at one attribute
        # check and modelled times bit-identical.
        self.sampler = None
        # open fusion scope (see begin_fused); None keeps launch() at
        # one attribute check when fusion is off.
        self._fusion = None

    # -- memory ---------------------------------------------------------

    @property
    def memory_in_use(self) -> int:
        return self._in_use

    def alloc(self, nbytes: int, raw: bool = False) -> int:
        """Reserve ``nbytes`` of device memory.

        Args:
            nbytes: allocation size.
            raw: charge the per-call malloc overhead (pools pass False —
                their whole purpose is to amortise this cost).

        Raises:
            DeviceMemoryError: if the allocation exceeds capacity.
        """
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self._in_use + nbytes > self.spec.memory_bytes:
            raise DeviceMemoryError(nbytes, self._in_use, self.spec.memory_bytes)
        self._in_use += nbytes
        if self._in_use > self.stats.peak_device_bytes:
            self.stats.peak_device_bytes = self._in_use
        if raw:
            self.stats.malloc_calls += 1
            self.stats.malloc_time_ns += self.spec.malloc_overhead_ns
            if self.tracer.enabled:
                self.tracer.leaf(
                    "malloc", "malloc", self.spec.malloc_overhead_ns,
                    bytes=nbytes,
                )
        return nbytes

    def free(self, nbytes: int, raw: bool = False) -> None:
        """Release ``nbytes`` previously allocated."""
        if nbytes > self._in_use:
            raise ValueError(
                f"freeing {nbytes} B but only {self._in_use} B in use"
            )
        self._in_use -= nbytes
        if raw:
            self.stats.malloc_calls += 1
            self.stats.malloc_time_ns += self.spec.malloc_overhead_ns

    # -- kernels ----------------------------------------------------------

    def launch(self, tag: str, elements: int, work: float = 1.0) -> float:
        """Charge one kernel launch over ``elements`` data items.

        ``work`` scales the per-iteration cost for kernels doing more
        than one memory access per element (e.g. hash build ~ 2x a
        plain scan, sort ~ log n).  Returns the charged nanoseconds.
        """
        iterations = math.ceil(elements / self.spec.threads) if elements > 0 else 0
        if self._fusion is not None:
            scope = self._fusion
            scope.iterations += iterations * work
            scope.kernels += 1
            if elements > scope.elements:
                scope.elements = elements
            return 0.0
        time_ns = self.spec.launch_overhead_ns + iterations * self.spec.iteration_ns * work
        self.stats.kernel_launches += 1
        self.stats.kernel_time_ns += time_ns
        self.stats.kernel_time_by_tag[tag] = (
            self.stats.kernel_time_by_tag.get(tag, 0.0) + time_ns
        )
        self.stats.launches_by_tag[tag] = self.stats.launches_by_tag.get(tag, 0) + 1
        if self.sampler is not None:
            self.sampler.record_kernel(elements, work, time_ns)
        if self.tracer.enabled:
            self.tracer.leaf(tag, "kernel", time_ns, elements=elements)
        return time_ns

    def begin_fused(self, tag: str) -> "_FusionScope | None":
        """Open a fusion scope: subsequent :meth:`launch` calls
        accumulate into one fused launch charged by :meth:`end_fused`.

        Returns the scope token, or ``None`` when a scope is already
        open — nested fused regions flatten into the outer launch, and
        the matching ``end_fused(None)`` is a no-op.
        """
        if self._fusion is not None:
            return None
        self._fusion = _FusionScope(tag)
        return self._fusion

    def end_fused(self, scope: "_FusionScope | None") -> float:
        """Close a fusion scope and charge the single combined launch.

        The fused launch pays one ``launch_overhead_ns`` plus the sum
        of every absorbed kernel's iteration time — the intermediate
        launch overheads are exactly what fusion eliminates.  An empty
        scope (no launches absorbed) charges nothing.
        """
        if scope is None or scope is not self._fusion:
            return 0.0
        self._fusion = None
        if scope.kernels == 0:
            return 0.0
        time_ns = (
            self.spec.launch_overhead_ns
            + scope.iterations * self.spec.iteration_ns
        )
        self.stats.kernel_launches += 1
        self.stats.fused_launches += 1
        self.stats.fused_kernels += scope.kernels
        self.stats.kernel_time_ns += time_ns
        self.stats.kernel_time_by_tag[scope.tag] = (
            self.stats.kernel_time_by_tag.get(scope.tag, 0.0) + time_ns
        )
        self.stats.launches_by_tag[scope.tag] = (
            self.stats.launches_by_tag.get(scope.tag, 0) + 1
        )
        if self.sampler is not None:
            # elements=threads makes ceil(elements/threads) == 1, so the
            # sample's x is exactly the combined iteration count and the
            # fused charge stays on the calibrator's C + K*x line.
            self.sampler.record_kernel(
                self.spec.threads, scope.iterations, time_ns
            )
        if self.tracer.enabled:
            self.tracer.leaf(
                scope.tag, "kernel", time_ns,
                elements=scope.elements, fused_kernels=scope.kernels,
            )
        return time_ns

    def materialize(self, nbytes: int) -> float:
        """Charge the materialization cost of writing ``nbytes`` results."""
        time_ns = nbytes * self.spec.materialize_ns_per_byte
        self.stats.materialize_bytes += nbytes
        self.stats.materialize_time_ns += time_ns
        if self.sampler is not None:
            self.sampler.record_materialize(nbytes, time_ns)
        if self.tracer.enabled:
            self.tracer.leaf("materialize", "materialize", time_ns, bytes=nbytes)
        return time_ns

    # -- transfers ----------------------------------------------------------

    def transfer_h2d(self, nbytes: int) -> float:
        """Charge a host-to-device PCIe transfer."""
        time_ns = nbytes / self.spec.pcie_bytes_per_ns
        self.stats.h2d_bytes += nbytes
        self.stats.h2d_time_ns += time_ns
        if self.sampler is not None:
            self.sampler.record_transfer(nbytes, time_ns)
        if self.tracer.enabled:
            self.tracer.leaf("h2d", "transfer", time_ns, bytes=nbytes)
        return time_ns

    def transfer_d2h(self, nbytes: int) -> float:
        """Charge a device-to-host PCIe transfer."""
        time_ns = nbytes / self.spec.pcie_bytes_per_ns
        self.stats.d2h_bytes += nbytes
        self.stats.d2h_time_ns += time_ns
        if self.sampler is not None:
            self.sampler.record_transfer(nbytes, time_ns)
        if self.tracer.enabled:
            self.tracer.leaf("d2h", "transfer", time_ns, bytes=nbytes)
        return time_ns

    def transfer_peer(self, nbytes: int, link, peer: int) -> float:
        """Charge a device-to-device copy over an interconnect link.

        Both ends of a peer copy are busy for its duration, so the
        :class:`DeviceGroup` charges this on the sender *and* the
        receiver; ``peer`` is the other device's index, recorded on the
        trace span only.
        """
        time_ns = link.transfer_ns(nbytes)
        self.stats.peer_bytes += nbytes
        self.stats.peer_time_ns += time_ns
        if self.tracer.enabled:
            self.tracer.leaf("p2p", "transfer", time_ns, bytes=nbytes, peer=peer)
        return time_ns

    # -- bookkeeping ----------------------------------------------------------

    def snapshot(self) -> ExecutionStats:
        """A copy of the running statistics (diff two to time a span)."""
        return self.stats.copy()

    def reset(self, rebase_peak: bool = False) -> None:
        """Clear the clock and counters; memory accounting is kept.

        ``rebase_peak=True`` seeds the fresh stats' high-water mark with
        the memory currently in use, so a per-query snapshot taken by a
        long-lived session reports the standing residency (resident
        columns, retained pools) even if the query itself never
        allocates.
        """
        self.stats = ExecutionStats()
        if rebase_peak:
            self.stats.peak_device_bytes = self._in_use
        if self.tracer.enabled:
            # rebase so a trace spanning the reset stays monotonic
            self.tracer.bind_device(self)
