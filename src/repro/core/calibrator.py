"""Online cost-model recalibration (closing the Section IV loop).

The analytic half of the cost model (Eqs. 1-5) is parameterised by the
device spec's coefficients — kernel launch constant ``C``, per-thread-
iteration time ``K``, materialization cost ``M`` per byte, and PCIe
bandwidth.  Those start as static guesses; once queries run, every
kernel launch, transfer and materialization the device charges is an
observation of the true coefficients.  The device's
:class:`~repro.gpu.stats.ExecutionStats` already sums what a refit
needs (the launches' Eq. (1) regressor moments, bytes and ns per
transfer kind), so :func:`fit` is a pure function of one such record —
a session folds every run's stats into one and refits from it — and
:class:`CostCoefficients` packages one fitted set with a monotonically
increasing version, so a session can swap coefficient sets atomically
and evict the plans the old set decided (auto-mode and tuned-fusion
plan-cache entries).

The coefficient object deliberately duck-types
:class:`~repro.gpu.spec.DeviceSpec` for the attributes the cost
functions read, so ``_kernel_ns`` and friends take either unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..gpu.stats import ExecutionStats


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


def fit(
    observed: ExecutionStats, base: CostCoefficients, min_samples: int = 32,
) -> CostCoefficients | None:
    """Fit fresh coefficients from ``observed``, or ``None`` if the
    evidence is thin.

    ``observed`` holds everything a device charged (a session folds each run's into one).
    The kernel model is linear in the per-thread iteration count::

        time_ns = C + ceil(elements / Th) * work * K

    so ordinary least squares over every charged launch's ``x =
    ceil(elements/Th) * work`` recovers ``C`` (intercept) and ``K``
    (slope), computed from the moments the device keeps (``n``, Σx,
    Σx², Σt, Σx·t); bandwidth and the materialization rate are
    ``Σbytes / Σns`` ratios.  ``base`` supplies the thread count (the
    observing device's, which ``x`` was computed with), the fallback
    for terms without observations (e.g. a workload that never
    materialized) and the version the result increments.  The kernel
    fit is the gate: without enough launches, or without variance in
    the iteration counts (C and K are then unidentifiable), no new
    coefficient set is issued.
    """
    n = observed.kernel_launches
    if n == 0 or n < min_samples:
        return None
    sum_x, sum_xx = observed.kernel_x, observed.kernel_xx
    mean_x = sum_x / n
    mean_y = observed.kernel_time_ns / n
    var_x = sum_xx - sum_x * mean_x
    # relative: equal x values leave rounding of Σx² behind, not zero
    if var_x <= 1e-9 * sum_xx:
        return None
    cov_xy = observed.kernel_xt - sum_x * mean_y
    iteration_ns = max(1e-9, cov_xy / var_x)
    launch_overhead_ns = max(0.0, mean_y - iteration_ns * mean_x)

    pcie = base.pcie_bytes_per_ns
    transfer_bytes = observed.h2d_bytes + observed.d2h_bytes
    transfer_ns = observed.h2d_time_ns + observed.d2h_time_ns
    if transfer_bytes > 0 and transfer_ns > 0:
        pcie = transfer_bytes / transfer_ns

    materialize = base.materialize_ns_per_byte
    if observed.materialize_bytes > 0:
        materialize = (
            observed.materialize_time_ns / observed.materialize_bytes
        )

    return replace(
        base,
        launch_overhead_ns=launch_overhead_ns,
        iteration_ns=iteration_ns,
        materialize_ns_per_byte=materialize,
        pcie_bytes_per_ns=pcie,
        version=base.version + 1,
        source="calibrated",
    )


def cost_error_summary(results) -> dict:
    """Aggregate cost-model prediction error over executed queries.

    ``results`` are :class:`~repro.core.executor.QueryResult` objects,
    e.g. one workload pass before a recalibration and one after it;
    ``predicted`` counts those that carried a prediction (auto-mode
    runs).
    """
    results = list(results)
    errors = [
        abs(r.predicted_error_pct)
        for r in results if r.predicted_error_pct is not None
    ]
    return {
        "queries": len(results),
        "predicted": len(errors),
        "mean_abs_error_pct": sum(errors) / len(errors) if errors else None,
        "max_abs_error_pct": max(errors) if errors else None,
    }
