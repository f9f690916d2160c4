"""Mid-query adaptivity: the governor abandons a mispredicted nested
loop for its unnested twin, and recalibration fixes the choices that
made the governor necessary."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_rst_catalog, rows_set
from repro.core import NestGPU
from repro.core.calibrator import CostCoefficients
from repro.engine import EngineOptions
from repro.gpu import DeviceSpec
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.serve import EngineSession
from repro.storage import Catalog, Table, int_type

# A deliberately small device: 512 threads makes kernel cost grow with
# data size, so a wrong first-batch extrapolation is visible.
TINY = DeviceSpec("tiny", 1 << 30, 512, 2_000.0, 200.0, 0.004, 12.0, 40_000.0)

SWITCH_SQL = (
    "SELECT r_col1 FROM r WHERE r_col2 < "
    "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
)


def make_switch_catalog() -> Catalog:
    """Data built to fool the first-batch probe.

    The first vector batch of R keys misses S entirely (keys from
    500000 up), so the probe measures launch overhead and nothing
    else; the tail is 8192 distinct keys with 12 S matches each, so
    every later batch pays gather and aggregation work the
    extrapolation never saw.
    """
    rng = np.random.default_rng(3)
    prefix, tail, m = 1024, 8192, 12
    r_col1 = np.concatenate([
        np.arange(500000, 500000 + prefix, dtype=np.int64),
        np.arange(1, tail + 1, dtype=np.int64),
    ])
    r_col2 = rng.integers(0, 50, size=prefix + tail)
    s_col1 = np.repeat(np.arange(1, tail + 1, dtype=np.int64), m)
    s_col2 = rng.integers(0, 50, size=tail * m)
    INT = int_type(4)
    r = Table.from_pydict(
        "r", [("r_col1", INT), ("r_col2", INT)],
        {"r_col1": r_col1, "r_col2": r_col2},
    )
    s = Table.from_pydict(
        "s", [("s_col1", INT), ("s_col2", INT)],
        {"s_col1": s_col1, "s_col2": s_col2},
    )
    return Catalog([r, s])


def run_mode(mode, options=None, tracer=None, metrics=None):
    engine = NestGPU(
        make_switch_catalog(), device=TINY,
        options=options or EngineOptions(), mode=mode,
        tracer=tracer, metrics=metrics,
    )
    return engine.execute(SWITCH_SQL)


class TestAdaptiveSwitch:
    def test_switch_fires_and_rows_are_bit_identical(self):
        adaptive = run_mode("auto")
        assert adaptive.adaptive_switch
        assert adaptive.plan_choice == "unnested"
        assert adaptive.abandoned_ms > 0.0
        # the switch changes the clock, never the answer
        nested = run_mode("nested")
        unnested = run_mode("unnested")
        assert not nested.adaptive_switch and not unnested.adaptive_switch
        assert rows_set(adaptive) == rows_set(nested)
        assert rows_set(adaptive) == rows_set(unnested)

    def test_switch_total_includes_abandoned_work(self):
        adaptive = run_mode("auto")
        unnested = run_mode("unnested")
        # the adaptive run pays for the abandoned loop on top of the
        # unnested rerun: it can never be cheaper than clairvoyance
        assert adaptive.total_ms > unnested.total_ms
        assert adaptive.abandoned_ms < adaptive.total_ms

    def test_switch_recorded_in_metrics_and_trace(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        run_mode("auto", tracer=tracer, metrics=metrics)
        tracer.finish()
        assert metrics.counter("costmodel.adaptive.switches").value == 1
        hist = metrics.histogram("costmodel.adaptive.abandoned_ms")
        assert hist.count == 1 and hist.total > 0.0
        assert metrics.counter("queries.path.unnested").value == 1
        entry = metrics.query_log[-1]
        assert entry["adaptive_switch"] is True
        assert entry["path"] == "unnested"
        executes = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name == "execute" and span.category == "phase"
        ]
        abandoned = [
            s for s in executes if (s.attrs or {}).get("adaptive_switch")
        ]
        reruns = [
            s for s in executes if (s.attrs or {}).get("adaptive_rerun")
        ]
        assert len(abandoned) == 1 and len(reruns) == 1
        assert abandoned[0].attrs["abandoned_ms"] > 0.0
        assert "switch_reason" in abandoned[0].attrs

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "fusion,total_ns",
        [("off", 3443541.758142501), ("auto", 3439541.758142501)],
    )
    def test_a_trip_generates_the_rerun_and_keeps_the_clock(
        self, fusion, total_ns, traced
    ):
        """The unnested twin is generated only when the governor trips,
        and the trip's rows, total and sunk time are the ones the twin
        generated eagerly gave (pinned from that engine)."""
        import hashlib

        engine = NestGPU(
            make_switch_catalog(), device=TINY,
            options=EngineOptions(fusion=fusion),
            tracer=Tracer() if traced else None,
        )
        prepared = engine.prepare(SWITCH_SQL)
        assert prepared.fallback.program is None
        result = engine.run_prepared(prepared)
        assert result.adaptive_switch
        assert result.drive_source == prepared.fallback.program.source
        digest = hashlib.sha256(repr(sorted(result.rows)).encode()).hexdigest()
        assert (len(result.rows), digest[:16]) == (4098, "d9d8cff3eeca0bad")
        assert result.stats.total_ns == total_ns
        assert result.abandoned_ms == 1.4462116620594236

    def test_adaptive_off_runs_nested_to_completion(self):
        result = run_mode("auto", options=EngineOptions(adaptive=False))
        assert not result.adaptive_switch
        assert result.plan_choice == "nested"
        assert result.abandoned_ms == 0.0
        assert rows_set(result) == rows_set(run_mode("nested"))

    def test_forced_modes_never_switch(self):
        # only auto carries a fallback plan; forced modes have no twin
        # to abandon to, governor or not
        assert not run_mode("nested").adaptive_switch
        assert not run_mode("unnested").adaptive_switch


class TestMispredictionSuite:
    """Five query shapes where stale coefficients stand behind the
    measured-slower path and one recalibration fixes every choice."""

    SHAPES = [
        "SELECT r_col1 FROM r WHERE r_col2 < "
        "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)",
        "SELECT r_col1, r_col2 FROM r WHERE r_col2 = "
        "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r_col1)",
        "SELECT t_col1 FROM t WHERE t_col2 > "
        "(SELECT AVG(s_col2) FROM s WHERE s_col1 = t_col1)",
        "SELECT r_col1 FROM r WHERE r_col2 > "
        "(SELECT MAX(s_col3) FROM s WHERE s_col1 = r_col1)",
        "SELECT t_col1 FROM t WHERE t_col3 < "
        "(SELECT SUM(s_col3) FROM s WHERE s_col1 = t_col1)",
    ]

    @staticmethod
    def forced_ms(sql, mode):
        engine = NestGPU(
            make_rst_catalog(n_r=200, n_s=400, n_t=300),
            device=DeviceSpec.v100(), mode=mode,
        )
        return engine.execute(sql).total_ms

    def test_recalibration_fixes_every_stale_choice(self):
        stale = CostCoefficients.from_spec(DeviceSpec.v100()).scaled(0.04)
        catalog = make_rst_catalog(n_r=200, n_s=400, n_t=300)
        with EngineSession(catalog, coefficients=stale) as session:
            stale_choice = {
                sql: session.execute(sql).plan_choice for sql in self.SHAPES
            }
            assert session.recalibrate(min_samples=8) is not None
            for sql in self.SHAPES:
                nested_ms = self.forced_ms(sql, "nested")
                unnested_ms = self.forced_ms(sql, "unnested")
                assert nested_ms != unnested_ms
                faster = (
                    "nested" if nested_ms < unnested_ms else "unnested"
                )
                # the stale model stood behind the slower path ...
                assert stale_choice[sql] != faster, sql
                # ... and the recalibrated model picks the faster one
                assert session.engine.prepare(sql).choice == faster, sql
