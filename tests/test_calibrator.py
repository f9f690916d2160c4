"""Online cost-model recalibration: the fit over a session's observed
stats, coefficient versioning, and the session's predict -> observe ->
correct loop."""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest

import repro.obs
from conftest import make_rst_catalog
from repro.core.calibrator import (
    CostCoefficients,
    cost_error_summary,
    fit,
)
from repro.engine import EngineOptions
from repro.errors import DeviceMemoryError
from repro.gpu import Device, DeviceSpec
from repro.obs.metrics import MetricsRegistry
from repro.serve import AsyncEngine, EngineSession, paper_mix_statements
from repro.serve.main import serve_main
from repro.serve.plancache import PlanCache
from repro.tpch import generate_tpch
from test_adaptive import SWITCH_SQL, TINY, make_switch_catalog

SPEC = DeviceSpec.v100()


def synthetic_samples(device, counts=(100, 400, 1000, 5000, 20000,
                                      163840, 400000, 1000000)):
    """Charge kernels on a real device, so every launch lies on its
    spec's Eq. (1) line."""
    for work in (1.0, 2.0, 3.5):
        for elements in counts:
            device.launch("synthetic", elements, work)
    return device


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
        device = synthetic_samples(Device(SPEC))
        base = CostCoefficients.from_spec(SPEC).scaled(0.1)
        fitted = fit(device.stats, base, min_samples=8)
        assert fitted is not None
        assert fitted.launch_overhead_ns == pytest.approx(
            SPEC.launch_overhead_ns, rel=1e-6
        )
        assert fitted.iteration_ns == pytest.approx(
            SPEC.iteration_ns, rel=1e-6
        )
        assert fitted.source == "calibrated"

    def test_version_increments_from_base(self):
        device = synthetic_samples(Device(SPEC))
        base = CostCoefficients.from_spec(SPEC, version=4)
        fitted = fit(device.stats, base, min_samples=8)
        assert fitted.version == 5

    def test_transfer_and_materialize_ratio_fits(self):
        device = synthetic_samples(Device(SPEC))
        for nbytes in (1000, 4096, 1 << 20):
            device.transfer_h2d(nbytes)
            device.transfer_d2h(nbytes // 2)
            device.materialize(nbytes)
        fitted = fit(device.stats,
                     CostCoefficients.from_spec(SPEC).scaled(3.0),
                     min_samples=8)
        assert fitted.pcie_bytes_per_ns == pytest.approx(
            SPEC.pcie_bytes_per_ns, rel=1e-9
        )
        assert fitted.materialize_ns_per_byte == pytest.approx(
            SPEC.materialize_ns_per_byte, rel=1e-9
        )

    def test_insufficient_samples_returns_none(self):
        device = Device(SPEC)
        device.launch("synthetic", 100)
        assert fit(device.stats, CostCoefficients.from_spec(SPEC)) is None

    def test_no_variance_returns_none(self):
        device = Device(SPEC)
        # every launch has the same x: C and K are unidentifiable
        for _ in range(64):
            device.launch("synthetic", 100)
        assert fit(device.stats, CostCoefficients.from_spec(SPEC),
                   min_samples=8) is None

    def test_no_variance_at_a_non_integer_x_returns_none(self):
        device = Device(SPEC)
        # x = ceil(n/Th) * log-ish work is not a dyadic float, so the
        # moments do not cancel to an exact zero
        for _ in range(4096):
            device.launch("synthetic", 300_000, work=math.log2(300_000))
        assert fit(device.stats, CostCoefficients.from_spec(SPEC),
                   min_samples=8) is None

    def test_missing_ratio_terms_fall_back_to_base(self):
        device = synthetic_samples(Device(SPEC))
        base = CostCoefficients.from_spec(SPEC).scaled(2.0)
        fitted = fit(device.stats, base, min_samples=8)
        # no transfers/materializations observed: terms carried over
        assert fitted.pcie_bytes_per_ns == base.pcie_bytes_per_ns
        assert fitted.materialize_ns_per_byte == base.materialize_ns_per_byte

    def test_fused_launch_lies_on_the_line(self):
        """A fused launch's x is its combined iteration count."""
        device = synthetic_samples(Device(SPEC))
        for elements in (1000, 50_000, 900_000):
            scope = device.begin_fused("fused")
            device.launch("synthetic", elements)
            device.launch("synthetic", elements // 3, work=2.0)
            device.end_fused(scope)
        assert device.stats.fused_launches == 3
        fitted = fit(device.stats, CostCoefficients.from_spec(SPEC),
                     min_samples=8)
        assert fitted.launch_overhead_ns == pytest.approx(
            SPEC.launch_overhead_ns, rel=1e-9
        )
        assert fitted.iteration_ns == pytest.approx(
            SPEC.iteration_ns, rel=1e-9
        )


@pytest.fixture
def charges(monkeypatch):
    """Every charge a device makes, recorded at the ``Device`` methods
    the way ``tools/corpus.py``'s ``observe`` records launches: a list
    of ``(device, kind, x_or_bytes, ns)`` — a launch absorbed into an
    open fusion scope is not a charge, its scope's launch is."""
    log: list = []
    launch, end_fused = Device.launch, Device.end_fused

    def recording_launch(self, tag, elements, work=1.0):
        absorbed = self._fusion is not None
        time_ns = launch(self, tag, elements, work)
        if not absorbed:
            iterations = (
                math.ceil(elements / self.spec.threads) if elements > 0
                else 0
            )
            log.append((self, "kernel", iterations * work, time_ns))
        return time_ns

    def recording_end_fused(self, scope):
        charged = (
            scope is not None and scope is self._fusion and scope.kernels
        )
        time_ns = end_fused(self, scope)
        if charged:
            log.append((self, "kernel", scope.iterations, time_ns))
        return time_ns

    def recording(kind, method):
        def charge(self, nbytes):
            time_ns = method(self, nbytes)
            log.append((self, kind, nbytes, time_ns))
            return time_ns
        return charge

    monkeypatch.setattr(Device, "launch", recording_launch)
    monkeypatch.setattr(Device, "end_fused", recording_end_fused)
    for kind, name in (("transfer", "transfer_h2d"),
                       ("transfer", "transfer_d2h"),
                       ("materialize", "materialize")):
        monkeypatch.setattr(
            Device, name, recording(kind, getattr(Device, name))
        )
    return log


def charged_on(log, device, kind) -> list[tuple[float, float]]:
    return [(a, t) for dev, k, a, t in log if dev is device and k == kind]


def reference_fit(log, device, base) -> dict:
    """Per-launch ordinary least squares over the recorded ``(x, t)``
    pairs (centred sums, one term per launch), and the ratio fits."""
    pairs = charged_on(log, device, "kernel")
    n = len(pairs)
    mean_x = sum(x for x, _ in pairs) / n
    mean_t = sum(t for _, t in pairs) / n
    var = sum((x - mean_x) ** 2 for x, _ in pairs)
    cov = sum((x - mean_x) * (t - mean_t) for x, t in pairs)
    iteration_ns = cov / var
    transfers = charged_on(log, device, "transfer")
    materializations = charged_on(log, device, "materialize")
    return {
        "launch_overhead_ns": mean_t - iteration_ns * mean_x,
        "iteration_ns": iteration_ns,
        "pcie_bytes_per_ns": (
            sum(b for b, _ in transfers) / sum(t for _, t in transfers)
            if transfers else base.pcie_bytes_per_ns
        ),
        "materialize_ns_per_byte": (
            sum(t for _, t in materializations)
            / sum(b for b, _ in materializations)
            if materializations else base.materialize_ns_per_byte
        ),
    }


def assert_observed_is_charged(session, log) -> None:
    """The session's observed record holds exactly the charges its
    device made: the launch count and tags exactly, the Eq. (1) sums
    and the transfer/materialize totals to float rounding."""
    observed = session.observed
    kernels = charged_on(log, session.device, "kernel")
    assert kernels, "the device charged no launch"
    assert observed.kernel_launches == len(kernels)
    assert observed.kernel_x == pytest.approx(
        sum(x for x, _ in kernels), rel=1e-12
    )
    assert observed.kernel_xx == pytest.approx(
        sum(x * x for x, _ in kernels), rel=1e-12
    )
    assert observed.kernel_xt == pytest.approx(
        sum(x * t for x, t in kernels), rel=1e-12
    )
    assert observed.kernel_time_ns == pytest.approx(
        sum(t for _, t in kernels), rel=1e-12
    )
    for kind, nbytes, ns in (
        ("transfer", observed.h2d_bytes + observed.d2h_bytes,
         observed.h2d_time_ns + observed.d2h_time_ns),
        ("materialize", observed.materialize_bytes,
         observed.materialize_time_ns),
    ):
        charged = charged_on(log, session.device, kind)
        assert nbytes == sum(b for b, _ in charged)
        assert ns == pytest.approx(sum(t for _, t in charged), rel=1e-12)


class TestObservedRecord:
    """``EngineSession.observed`` is everything the session device
    charged, launch by launch — across an inline batch, an abandoned
    adaptive attempt and a query that raised."""

    @pytest.mark.parametrize("fusion", ["off", "auto"])
    def test_inline_two_worker_batch(self, charges, fusion):
        statements = paper_mix_statements()
        with EngineSession(generate_tpch(0.05),
                           options=EngineOptions(fusion=fusion)) as session:
            report = AsyncEngine(
                session, workers=2, queue_capacity=64, autostart=False,
            ).run_batch(statements)
            assert len(report.completed) == len(statements)
            assert_observed_is_charged(session, charges)
            per_tag = Counter()
            for query in report.completed:
                per_tag.update(query.result.stats.launches_by_tag)
            assert session.observed.launches_by_tag == dict(per_tag)
            fused = session.observed.fused_launches
            assert fused > 0 if fusion == "auto" else fused == 0

    def test_abandoned_adaptive_attempt_stays_observed(self, charges):
        with EngineSession(make_switch_catalog(), device=TINY) as session:
            result = session.execute(SWITCH_SQL)
            assert result.adaptive_switch and result.abandoned_ms > 0.0
            assert_observed_is_charged(session, charges)
            # the abandoned loop's launches are in the query's clock and
            # in the observed record alike
            assert session.observed.kernel_launches == (
                result.stats.kernel_launches
            )

    def test_a_query_that_raised_stays_observed(self, charges):
        small = SPEC.with_memory(13_824)
        catalog = make_rst_catalog(n_r=200, n_s=400, n_t=300)
        options = EngineOptions(use_vectorization=False)
        with EngineSession(catalog, device=small, mode="nested",
                           options=options) as session:
            first = session.execute("SELECT r_col1 FROM r WHERE r_col2 < 10")
            with pytest.raises(DeviceMemoryError):
                session.execute(
                    "SELECT r_col1 FROM r WHERE r_col2 < "
                    "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
                )
            assert_observed_is_charged(session, charges)
            # the failed query charged launches before it raised
            assert session.observed.kernel_launches > (
                first.stats.kernel_launches
            )


class TestFitEqualsPerLaunchReference:
    def test_paper_mix(self, charges):
        stale = CostCoefficients.from_spec(SPEC).scaled(0.04)
        with EngineSession(generate_tpch(0.05),
                           coefficients=stale) as session:
            for sql in paper_mix_statements():
                session.execute(sql)
            expected = reference_fit(charges, session.device, stale)
            recal = session.recalibrate()
            assert recal is not None
            fitted = recal["coefficients"]
            for name, value in expected.items():
                assert getattr(fitted, name) == pytest.approx(
                    value, rel=1e-12
                ), name
            # the reference saw real transfers and materializations
            assert recal["samples"]["transfer_bytes"] > 0
            assert recal["samples"]["materialize_bytes"] > 0

    def test_one_statement_run_ten_times_recalibrates(self):
        """A single repeated statement still gives one point per launch
        (per-launch identifiability, not one point per query)."""
        stale = CostCoefficients.from_spec(SPEC).scaled(0.04)
        sql = (
            "SELECT r_col1 FROM r WHERE r_col2 < "
            "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
        )
        with EngineSession(make_rst_catalog(n_r=200, n_s=400, n_t=300),
                           coefficients=stale) as session:
            for _ in range(10):
                session.execute(sql)
            recal = session.recalibrate()
            assert recal is not None
            fitted = recal["coefficients"]
            assert fitted.launch_overhead_ns == pytest.approx(
                SPEC.launch_overhead_ns, rel=1e-6
            )
            assert fitted.iteration_ns == pytest.approx(
                SPEC.iteration_ns, rel=1e-6
            )


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
            assert session.observed is None
            with pytest.raises(RuntimeError):
                session.recalibrate()

    def test_probe_runs_never_feed_the_calibrator(self):
        """Cost-model probe runs use their own device; only real session
        work lands in the observed record."""
        catalog = make_rst_catalog()
        with EngineSession(catalog) as session:
            session.engine.prepare(
                "SELECT r_col1 FROM r WHERE r_col2 < "
                "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
            )
            assert session.observed.kernel_launches == 0


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
        # every launch lies on the V100's Eq. (1) line: the refit is exact
        fitted = report["after"]["coefficients"]
        for name in ("launch_overhead_ns", "iteration_ns",
                     "pcie_bytes_per_ns", "materialize_ns_per_byte"):
            assert fitted[name] == pytest.approx(
                getattr(SPEC, name), rel=1e-9
            ), name

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
