"""Cost-model recalibration: prediction error before and after.

The feedback loop's headline number: seed the session with
deliberately stale coefficients (everything 25x off, the shape of a
mis-specified device profile), run the paper mix, refit Eq. (1)-(5)
from the observed kernel timings, run the mix again.  The predicted
vs. actual error must collapse — this is the CI calibration smoke as
a reported figure.
"""

from repro.core.calibrator import CostCoefficients, cost_error_summary
from repro.gpu import DeviceSpec
from repro.serve import AsyncEngine, EngineSession, paper_mix_statements
from repro.tpch import generate_tpch

from conftest import save_report

STALE_FACTOR = 0.04
SCALE = 0.1


def calibration_recovery():
    device = DeviceSpec.v100()
    stale = CostCoefficients.from_spec(device).scaled(STALE_FACTOR)
    statements = paper_mix_statements()
    with EngineSession(
        generate_tpch(SCALE), device=device, coefficients=stale,
    ) as session:
        def run_pass():
            report = AsyncEngine(
                session, workers=2,
                queue_capacity=max(64, len(statements)), autostart=False,
            ).run_batch(statements)
            return cost_error_summary(q.result for q in report.completed)

        before = run_pass()
        recal = session.recalibrate()
        after = run_pass()
        return {
            "before": before,
            "after": after,
            "version": recal["version"] if recal else None,
            "evicted": recal["plan_cache_evicted"] if recal else 0,
            "samples": recal["samples"] if recal else {},
        }


def test_calibration_recovery(benchmark):
    out = benchmark.pedantic(calibration_recovery, rounds=1, iterations=1)
    before, after = out["before"], out["after"]

    lines = [
        "Cost-model recalibration: paper mix, stale coefficients "
        f"(x{STALE_FACTOR})",
        "-----------------------------------------------------------------",
        f"{'':>10s} {'queries':>8s} {'predicted':>10s} "
        f"{'mean err':>9s} {'max err':>9s}",
    ]
    for label, summary in (("before", before), ("after", after)):
        lines.append(
            f"{label:>10s} {summary['queries']:8d} "
            f"{summary['predicted']:10d} "
            f"{summary['mean_abs_error_pct']:8.1f}% "
            f"{summary['max_abs_error_pct']:8.1f}%"
        )
    lines.append(
        f"cost-model version {out['version']}, "
        f"{out['evicted']} cached plans evicted, "
        f"{out['samples'].get('kernels', 0)} kernel samples"
    )
    save_report("calibration_recovery", "\n".join(lines))

    assert out["version"] == 1
    assert before["predicted"] > 0 and after["predicted"] > 0
    # the loop must close: error strictly shrinks after the refit
    assert after["mean_abs_error_pct"] < before["mean_abs_error_pct"]
    assert after["max_abs_error_pct"] < before["max_abs_error_pct"]
