"""Online cost-model recalibration (closing the Section IV loop).

The analytic half of the cost model (Eqs. 1-5) is parameterised by the
device spec's coefficients — kernel launch constant ``C``, per-thread-
iteration time ``K``, materialization cost ``M`` per byte, and PCIe
bandwidth.  Those start as static guesses; once queries run, every
kernel launch, transfer and materialization the device charges is an
observation of the true coefficients.  The :class:`Calibrator` collects
those observations and re-fits the coefficients by least squares, and
:class:`CostCoefficients` packages one fitted set with a monotonically
increasing version, so a session can swap coefficient sets atomically
and evict the plans the old set decided (auto-mode and tuned-fusion
plan-cache entries).

The coefficient object deliberately duck-types
:class:`~repro.gpu.spec.DeviceSpec` for the attributes the cost
functions read, so ``_kernel_ns`` and friends take either unchanged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostCoefficients:
    """One versioned set of Eq. (1)-(5) coefficients.

    Attributes mirror the :class:`~repro.gpu.spec.DeviceSpec` fields the
    analytic cost functions read, plus provenance:

    * ``version`` — bumped on every recalibration; the fusion tuner
      stores it with each measured decision and re-measures on a
      mismatch.
    * ``source`` — ``'spec'`` (taken from the device spec), ``'stale'``
      (deliberately skewed, for benchmarks and the calibration smoke)
      or ``'calibrated'`` (fitted from observed timings).
    """

    threads: int
    launch_overhead_ns: float
    iteration_ns: float
    materialize_ns_per_byte: float
    pcie_bytes_per_ns: float
    version: int = 0
    source: str = "spec"

    @staticmethod
    def from_spec(spec, version: int = 0, source: str = "spec") -> "CostCoefficients":
        """The coefficient set a device spec implies (exact for the
        simulated device, a starting guess for real hardware)."""
        return CostCoefficients(
            threads=spec.threads,
            launch_overhead_ns=spec.launch_overhead_ns,
            iteration_ns=spec.iteration_ns,
            materialize_ns_per_byte=spec.materialize_ns_per_byte,
            pcie_bytes_per_ns=spec.pcie_bytes_per_ns,
            version=version,
            source=source,
        )

    def scaled(self, factor: float) -> "CostCoefficients":
        """A deliberately mis-scaled copy: every predicted time is off
        by ``factor`` (bandwidth divides so transfers scale the same
        way).  Used to seed sessions with a stale model."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            launch_overhead_ns=self.launch_overhead_ns * factor,
            iteration_ns=self.iteration_ns * factor,
            materialize_ns_per_byte=self.materialize_ns_per_byte * factor,
            pcie_bytes_per_ns=self.pcie_bytes_per_ns / factor,
            source="stale",
        )

    def to_dict(self) -> dict:
        return {
            "threads": self.threads,
            "launch_overhead_ns": self.launch_overhead_ns,
            "iteration_ns": self.iteration_ns,
            "materialize_ns_per_byte": self.materialize_ns_per_byte,
            "pcie_bytes_per_ns": self.pcie_bytes_per_ns,
            "version": self.version,
            "source": self.source,
        }


class _Ring:
    """A capped sample buffer: appends wrap around once full, so the fit
    always sees the most recent window without unbounded growth."""

    __slots__ = ("capacity", "samples", "_next", "seen")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.samples: list[tuple[float, float]] = []
        self._next = 0
        self.seen = 0

    def add(self, sample: tuple[float, float]) -> None:
        self.seen += 1
        if len(self.samples) < self.capacity:
            self.samples.append(sample)
            return
        self.samples[self._next] = sample
        self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self.samples)


class Calibrator:
    """Regresses the Eq. (1)-(5) coefficients from observed timings.

    Attached to a device as its ``sampler``, the calibrator receives
    every charged kernel launch as ``(elements, work, time_ns)`` plus
    every transfer and materialization as ``(bytes, time_ns)``.  The
    kernel model is linear in the per-thread iteration count::

        time_ns = C + ceil(elements / Th) * work * K

    so ordinary least squares over ``x = ceil(elements/Th) * work``
    recovers ``C`` (intercept) and ``K`` (slope); bandwidth and the
    materialization rate are ratio fits.  On the simulated device the
    observations are exact, so a fit converges to the device spec in one
    pass — which is precisely what makes a deliberately stale model
    recoverable (see the calibration smoke).

    Thread safety: recording happens on the device's hot path, which the
    owning session already serializes, but the calibrator keeps its own
    lock so ``fit`` may run concurrently with another session's probes
    and the stats read cheaply from any thread.
    """

    def __init__(self, threads: int, capacity: int = 4096):
        if threads < 1:
            raise ValueError("thread count must be positive")
        self.threads = threads
        self._lock = threading.Lock()
        self._kernels = _Ring(capacity)
        self._transfers = _Ring(capacity)
        self._materializes = _Ring(capacity)

    # -- recording (device sampler protocol) ----------------------------

    def record_kernel(self, elements: int, work: float, time_ns: float) -> None:
        iterations = math.ceil(elements / self.threads) if elements > 0 else 0
        with self._lock:
            self._kernels.add((iterations * work, time_ns))

    def record_transfer(self, nbytes: int, time_ns: float) -> None:
        if nbytes <= 0:
            return
        with self._lock:
            self._transfers.add((float(nbytes), time_ns))

    def record_materialize(self, nbytes: int, time_ns: float) -> None:
        if nbytes <= 0:
            return
        with self._lock:
            self._materializes.add((float(nbytes), time_ns))

    # -- inspection -----------------------------------------------------

    def sample_counts(self) -> dict:
        with self._lock:
            return {
                "kernels": self._kernels.seen,
                "transfers": self._transfers.seen,
                "materializations": self._materializes.seen,
                "kernel_window": len(self._kernels),
            }

    def clear(self) -> None:
        with self._lock:
            capacity = self._kernels.capacity
            self._kernels = _Ring(capacity)
            self._transfers = _Ring(capacity)
            self._materializes = _Ring(capacity)

    # -- fitting --------------------------------------------------------

    def fit(
        self, base: CostCoefficients, min_samples: int = 32,
    ) -> CostCoefficients | None:
        """Fit fresh coefficients, or ``None`` if the evidence is thin.

        ``base`` supplies the fallback for terms without observations
        (e.g. a workload that never materialized) and the version the
        result increments.  The kernel fit is the gate: without enough
        launches, or without variance in the iteration counts (C and K
        are then unidentifiable), no new coefficient set is issued.
        """
        with self._lock:
            kernel_samples = list(self._kernels.samples)
            transfer_samples = list(self._transfers.samples)
            materialize_samples = list(self._materializes.samples)
        if len(kernel_samples) < min_samples:
            return None
        n = float(len(kernel_samples))
        sum_x = sum(x for x, _ in kernel_samples)
        sum_y = sum(y for _, y in kernel_samples)
        mean_x = sum_x / n
        mean_y = sum_y / n
        var_x = sum((x - mean_x) ** 2 for x, _ in kernel_samples)
        if var_x <= 1e-12:
            return None
        cov_xy = sum(
            (x - mean_x) * (y - mean_y) for x, y in kernel_samples
        )
        iteration_ns = max(1e-9, cov_xy / var_x)
        launch_overhead_ns = max(0.0, mean_y - iteration_ns * mean_x)

        pcie = base.pcie_bytes_per_ns
        total_bytes = sum(b for b, _ in transfer_samples)
        total_ns = sum(t for _, t in transfer_samples)
        if total_bytes > 0 and total_ns > 0:
            pcie = total_bytes / total_ns

        materialize = base.materialize_ns_per_byte
        mat_bytes = sum(b for b, _ in materialize_samples)
        mat_ns = sum(t for _, t in materialize_samples)
        if mat_bytes > 0:
            materialize = mat_ns / mat_bytes

        return CostCoefficients(
            threads=self.threads,
            launch_overhead_ns=launch_overhead_ns,
            iteration_ns=iteration_ns,
            materialize_ns_per_byte=materialize,
            pcie_bytes_per_ns=pcie,
            version=base.version + 1,
            source="calibrated",
        )
