"""Online cost-model recalibration: the Calibrator fit, coefficient
versioning, and the session's predict -> observe -> correct loop."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import repro.obs
from conftest import make_rst_catalog
from repro.core.calibrator import (
    Calibrator,
    CostCoefficients,
    cost_error_summary,
)
from repro.gpu import DeviceSpec
from repro.obs.metrics import MetricsRegistry
from repro.serve import EngineSession
from repro.serve.main import serve_main
from repro.serve.plancache import PlanCache

SPEC = DeviceSpec.v100()


def synthetic_samples(calibrator, spec, counts=(100, 400, 1000, 5000, 20000,
                                                163840, 400000, 1000000)):
    """Feed kernel timings generated by the device's own Eq. (1)."""
    for work in (1.0, 2.0, 3.5):
        for elements in counts:
            iterations = math.ceil(elements / spec.threads)
            time_ns = (
                spec.launch_overhead_ns
                + iterations * work * spec.iteration_ns
            )
            calibrator.record_kernel(elements, work, time_ns)


class TestCoefficients:
    def test_from_spec_mirrors_device(self):
        c = CostCoefficients.from_spec(SPEC)
        assert c.threads == SPEC.threads
        assert c.launch_overhead_ns == SPEC.launch_overhead_ns
        assert c.iteration_ns == SPEC.iteration_ns
        assert c.pcie_bytes_per_ns == SPEC.pcie_bytes_per_ns
        assert c.version == 0 and c.source == "spec"

    def test_scaled_skews_every_term(self):
        c = CostCoefficients.from_spec(SPEC).scaled(0.5)
        assert c.launch_overhead_ns == SPEC.launch_overhead_ns * 0.5
        assert c.iteration_ns == SPEC.iteration_ns * 0.5
        # bandwidth divides: transfers predicted 2x too fast
        assert c.pcie_bytes_per_ns == SPEC.pcie_bytes_per_ns / 0.5
        assert c.source == "stale"

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CostCoefficients.from_spec(SPEC).scaled(0.0)

    def test_to_dict_round_trips_fields(self):
        d = CostCoefficients.from_spec(SPEC, version=3).to_dict()
        assert d["version"] == 3
        assert d["iteration_ns"] == SPEC.iteration_ns


class TestFit:
    def test_recovers_spec_exactly_from_synthetic_samples(self):
        cal = Calibrator(SPEC.threads)
        synthetic_samples(cal, SPEC)
        base = CostCoefficients.from_spec(SPEC).scaled(0.1)
        fitted = cal.fit(base, min_samples=8)
        assert fitted is not None
        assert fitted.launch_overhead_ns == pytest.approx(
            SPEC.launch_overhead_ns, rel=1e-6
        )
        assert fitted.iteration_ns == pytest.approx(
            SPEC.iteration_ns, rel=1e-6
        )
        assert fitted.source == "calibrated"

    def test_version_increments_from_base(self):
        cal = Calibrator(SPEC.threads)
        synthetic_samples(cal, SPEC)
        base = CostCoefficients.from_spec(SPEC, version=4)
        fitted = cal.fit(base, min_samples=8)
        assert fitted.version == 5

    def test_transfer_and_materialize_ratio_fits(self):
        cal = Calibrator(SPEC.threads)
        synthetic_samples(cal, SPEC)
        for nbytes in (1000, 4096, 1 << 20):
            cal.record_transfer(nbytes, nbytes / SPEC.pcie_bytes_per_ns)
            cal.record_materialize(
                nbytes, nbytes * SPEC.materialize_ns_per_byte
            )
        fitted = cal.fit(CostCoefficients.from_spec(SPEC).scaled(3.0),
                         min_samples=8)
        assert fitted.pcie_bytes_per_ns == pytest.approx(
            SPEC.pcie_bytes_per_ns, rel=1e-9
        )
        assert fitted.materialize_ns_per_byte == pytest.approx(
            SPEC.materialize_ns_per_byte, rel=1e-9
        )

    def test_insufficient_samples_returns_none(self):
        cal = Calibrator(SPEC.threads)
        cal.record_kernel(100, 1.0, 5220.0)
        assert cal.fit(CostCoefficients.from_spec(SPEC)) is None

    def test_no_variance_returns_none(self):
        cal = Calibrator(SPEC.threads)
        # every sample has the same x: C and K are unidentifiable
        for _ in range(64):
            cal.record_kernel(100, 1.0, 5220.0)
        assert cal.fit(CostCoefficients.from_spec(SPEC), min_samples=8) is None

    def test_missing_ratio_terms_fall_back_to_base(self):
        cal = Calibrator(SPEC.threads)
        synthetic_samples(cal, SPEC)
        base = CostCoefficients.from_spec(SPEC).scaled(2.0)
        fitted = cal.fit(base, min_samples=8)
        # no transfers/materializations observed: terms carried over
        assert fitted.pcie_bytes_per_ns == base.pcie_bytes_per_ns
        assert fitted.materialize_ns_per_byte == base.materialize_ns_per_byte

    def test_ring_window_bounds_memory(self):
        cal = Calibrator(SPEC.threads, capacity=16)
        for i in range(100):
            cal.record_kernel(100 * (i + 1), 1.0, 5220.0 + i)
        counts = cal.sample_counts()
        assert counts["kernels"] == 100
        assert counts["kernel_window"] == 16


class TestSessionRecalibration:
    """The end-to-end loop: stale model -> observe -> refit -> better."""

    def run_workload(self, session):
        queries = [
            "SELECT r_col1 FROM r WHERE r_col2 < "
            "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)",
            "SELECT r_col1, r_col2 FROM r WHERE r_col2 = "
            "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r_col1)",
            "SELECT t_col1 FROM t WHERE t_col2 > "
            "(SELECT AVG(s_col2) FROM s WHERE s_col1 = t_col1)",
            "SELECT r_col1 FROM r WHERE EXISTS "
            "(SELECT 1 FROM s WHERE s_col1 = r_col1 AND s_col2 > 25)",
        ]
        return [session.execute(q) for q in queries]

    def test_recalibration_recovers_spec_and_shrinks_error(self):
        catalog = make_rst_catalog(n_r=200, n_s=400, n_t=300)
        stale = CostCoefficients.from_spec(SPEC).scaled(0.04)
        metrics = MetricsRegistry()
        with EngineSession(catalog, metrics=metrics,
                           coefficients=stale) as session:
            first = self.run_workload(session)
            before = cost_error_summary(first)
            recal = session.recalibrate()
            assert recal is not None
            assert recal["version"] == 1
            fitted = session.engine.coefficients
            assert fitted.launch_overhead_ns == pytest.approx(
                SPEC.launch_overhead_ns, rel=1e-6
            )
            assert fitted.iteration_ns == pytest.approx(
                SPEC.iteration_ns, rel=1e-6
            )
            second = self.run_workload(session)
            after = cost_error_summary(second)
            assert after["mean_abs_error_pct"] < before["mean_abs_error_pct"]
            # recalibration never changes answers, only choices
            for a, b in zip(first, second):
                assert sorted(a.rows) == sorted(b.rows)

    def test_recalibration_evicts_only_auto_plans(self):
        catalog = make_rst_catalog(n_r=200, n_s=400, n_t=300)
        stale = CostCoefficients.from_spec(SPEC).scaled(0.04)
        with EngineSession(catalog, coefficients=stale) as session:
            auto_sql = (
                "SELECT r_col1 FROM r WHERE r_col2 < "
                "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
            )
            nested_sql = (
                "SELECT t_col1 FROM t WHERE t_col2 > "
                "(SELECT AVG(s_col2) FROM s WHERE s_col1 = t_col1)"
            )
            session.execute(auto_sql)
            session.execute(nested_sql, mode="nested")
            auto_key = PlanCache.key(auto_sql, "auto")
            nested_key = PlanCache.key(nested_sql, "nested")
            assert auto_key in session.plan_cache
            assert nested_key in session.plan_cache
            recal = session.recalibrate(min_samples=8)
            assert recal is not None
            assert recal["plan_cache_evicted"] >= 1
            # forced-mode plans never depend on the cost model
            assert auto_key not in session.plan_cache
            assert nested_key in session.plan_cache

    def test_recalibration_metrics_and_stats(self):
        catalog = make_rst_catalog(n_r=200, n_s=400, n_t=300)
        metrics = MetricsRegistry()
        with EngineSession(catalog, metrics=metrics) as session:
            self.run_workload(session)
            recal = session.recalibrate(min_samples=8)
            assert recal is not None
            assert metrics.counter("costmodel.recalibrations").value == 1
            assert metrics.gauge("costmodel.version").value == 1
            stats = session.stats()
            assert stats["cost_model"]["version"] == 1
            assert stats["cost_model"]["source"] == "calibrated"
            assert stats["cost_model"]["samples"]["kernels"] > 0

    def test_fit_returns_none_when_workload_too_small(self):
        catalog = make_rst_catalog()
        with EngineSession(catalog) as session:
            session.execute("SELECT r_col1 FROM r WHERE r_col2 < 10")
            assert session.recalibrate(min_samples=1000) is None
            assert session.engine.coefficients.version == 0

    def test_calibration_off_session_raises(self):
        catalog = make_rst_catalog()
        with EngineSession(catalog, shards=2) as session:
            assert session.calibrator is None
            with pytest.raises(RuntimeError):
                session.recalibrate()

    def test_probe_runs_never_feed_the_calibrator(self):
        """Cost-model probe runs use their own device; only real session
        work lands in the sample window."""
        catalog = make_rst_catalog()
        with EngineSession(catalog) as session:
            session.engine.prepare(
                "SELECT r_col1 FROM r WHERE r_col2 < "
                "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
            )
            assert session.calibrator.sample_counts()["kernels"] == 0


class TestServeCalibrate:
    """``repro serve --calibrate`` scores each pass on its own results."""

    ARGV = [
        "--paper-mix", "--streams", "2", "--scale", "0.05",
        "--calibrate", "--stale-model", "0.04",
    ]

    def run(self, tmp_path, *extra):
        path = tmp_path / "calibration-report.json"
        status = serve_main([
            *self.ARGV, "--calibration-report", str(path), *extra,
        ])
        assert status == 0
        return json.loads(path.read_text())

    def test_error_shrinks(self, tmp_path):
        # the assertions of CI's calibration-smoke job, at sf 0.05
        report = self.run(tmp_path)
        before = report["before"]["error"]
        after = report["after"]["error"]
        assert before["predicted"] > 0, before
        assert after["predicted"] > 0, after
        assert after["mean_abs_error_pct"] < before["mean_abs_error_pct"]
        recal = report["recalibration"]
        assert recal["version"] > 0, recal
        assert recal["plan_cache_evicted"] > 0, recal
        assert report["improved"] is True

    def test_a_wrapped_query_log_does_not_split_the_passes(
        self, tmp_path, monkeypatch,
    ):
        # a log smaller than one pass: the passes must not be told
        # apart by positions in it
        monkeypatch.setattr(
            repro.obs, "MetricsRegistry",
            lambda: MetricsRegistry(query_log_capacity=8),
        )
        report = self.run(tmp_path, "--metrics", str(tmp_path / "m.json"))
        before = report["before"]["error"]
        after = report["after"]["error"]
        assert before["queries"] == after["queries"] == 10
        assert after["mean_abs_error_pct"] < before["mean_abs_error_pct"]
        assert report["improved"] is True
