"""The fusion subsystem: device scopes, fused operators, the tuner.

The modelled-device contract under test: a fusion scope absorbs every
``launch()`` inside it and charges exactly ONE launch whose time is
one launch overhead plus the *sum* of the absorbed kernels' iteration
time — the eliminated intermediate overheads are the entire benefit.
The numpy side runs unchanged, so rows are bit-identical by
construction; these tests pin the accounting.
"""

import math

import numpy as np
import pytest

from repro.core import NestGPU, FusionPlan, FusionTuner, FusionDecision, FUSION_OFF
from repro.engine import EngineOptions, ExecutionContext
from repro.engine import operators as ops
from repro.gpu import Device, DeviceSpec
from repro.gpu import kernels
from repro.plan.expressions import ColRef, Compare, Const


@pytest.fixture()
def device():
    return Device(DeviceSpec.v100())


def col(binding, name):
    return ColRef(binding, name, "int")


class TestFusionScope:
    def test_fused_block_charges_one_launch_with_combined_work(self, device):
        spec = device.spec
        n = 10_000
        scope = device.begin_fused("fused_test")
        device.launch("compare_gt", n)
        device.launch("logical_and", n)
        device.launch("prefix_sum", n, work=math.log2(n))
        charged = device.end_fused(scope)
        stats = device.stats
        assert stats.kernel_launches == 1
        assert stats.fused_launches == 1
        assert stats.fused_kernels == 3
        iterations = (
            math.ceil(n / spec.threads) * (1 + 1 + math.log2(n))
        )
        expected = spec.launch_overhead_ns + iterations * spec.iteration_ns
        assert charged == pytest.approx(expected)
        assert stats.kernel_time_ns == pytest.approx(expected)

    def test_fusion_saves_exactly_the_intermediate_overheads(self, device):
        unfused = Device(device.spec)
        n = 5_000
        for tag in ("compare_gt", "compare_lt", "logical_and"):
            unfused.launch(tag, n)
        scope = device.begin_fused("fused_chain")
        for tag in ("compare_gt", "compare_lt", "logical_and"):
            device.launch(tag, n)
        device.end_fused(scope)
        saved = unfused.stats.kernel_time_ns - device.stats.kernel_time_ns
        assert saved == pytest.approx(2 * device.spec.launch_overhead_ns)

    def test_empty_scope_charges_nothing(self, device):
        scope = device.begin_fused("empty")
        assert device.end_fused(scope) == 0.0
        assert device.stats.kernel_launches == 0
        assert device.stats.fused_launches == 0
        assert device.stats.total_ns == 0.0

    def test_nested_scopes_flatten_into_the_outer_launch(self, device):
        outer = device.begin_fused("outer")
        device.launch("compare_gt", 1000)
        inner = device.begin_fused("inner")
        assert inner is None  # nested scope flattens
        device.launch("compare_lt", 1000)
        assert device.end_fused(inner) == 0.0  # no-op close
        device.launch("logical_and", 1000)
        device.end_fused(outer)
        assert device.stats.kernel_launches == 1
        assert device.stats.fused_kernels == 3

    def test_fused_contextmanager_matches_manual_scope(self, device):
        manual = Device(device.spec)
        scope = manual.begin_fused("block")
        manual.launch("compare_gt", 2000)
        manual.launch("logical_and", 2000)
        manual.end_fused(scope)
        with kernels.fused(device, "block"):
            device.launch("compare_gt", 2000)
            device.launch("logical_and", 2000)
        assert device.stats.kernel_time_ns == manual.stats.kernel_time_ns
        assert device.stats.kernel_launches == 1

    def test_fused_compact_rows_match_unfused(self, device):
        mask = np.array([1, 0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=np.int64)
        with kernels.fused(device, "fused_compact"):
            fused_idx = kernels.compact(device, mask)
        plain = Device(device.spec)
        plain_idx = kernels.compact(plain, mask)
        np.testing.assert_array_equal(fused_idx, plain_idx)
        assert device.stats.kernel_launches == 1
        assert plain.stats.kernel_launches > 1

    def test_fused_select_equals_and_chain_plus_compact(self, device):
        rng = np.random.default_rng(3)
        masks = [
            (rng.integers(0, 2, size=500)).astype(np.int64) for _ in range(4)
        ]
        with kernels.fused(device, "fused_select"):
            combined = masks[0]
            for mask in masks[1:]:
                combined = kernels.logical_and(device, combined, mask)
            got = kernels.compact(device, combined)
        expected = np.flatnonzero(
            masks[0] & masks[1] & masks[2] & masks[3]
        )
        np.testing.assert_array_equal(got, expected)
        assert device.stats.kernel_launches == 1
        # 3 ANDs + the compaction tail all absorbed
        assert device.stats.fused_kernels >= 4


class TestFusedOperators:
    @pytest.fixture()
    def ctx(self, rst_catalog):
        return ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))

    def _predicates(self):
        return [
            Compare(">", col("s", "s_col2"), Const(10)),
            Compare("<", col("s", "s_col2"), Const(45)),
            Compare("!=", col("s", "s_col3"), Const(2)),
        ]

    def test_fused_scan_rows_identical_fewer_launches(self, rst_catalog):
        plain_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
        fused_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
        plain = ops.scan(plain_ctx, "s", "s", self._predicates())
        fused = ops.scan(fused_ctx, "s", "s", self._predicates(), fused=True)
        np.testing.assert_array_equal(
            plain.column("s.s_col2").data, fused.column("s.s_col2").data
        )
        assert (
            fused_ctx.device.stats.kernel_launches
            < plain_ctx.device.stats.kernel_launches
        )
        assert fused_ctx.device.stats.fused_launches >= 1

    def test_filter_rel_multi_fused_equals_sequential(self, rst_catalog):
        plain_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
        fused_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
        base_a = ops.scan(plain_ctx, "s", "s", [])
        base_b = ops.scan(fused_ctx, "s", "s", [])
        plain = ops.filter_rel_multi(
            plain_ctx, base_a, self._predicates()
        )
        fused = ops.filter_rel_multi(
            fused_ctx, base_b, self._predicates(), fused=True
        )
        np.testing.assert_array_equal(
            plain.column("s.s_col3").data, fused.column("s.s_col3").data
        )
        assert (
            fused_ctx.device.stats.kernel_launches
            < plain_ctx.device.stats.kernel_launches
        )


class TestFusedVectorizedScan:
    """Regression pin for the vectorized B-scan accounting: the fused
    run of a vectorized nested query records its scan chains as fused
    launches of combined work, never as extra kernels."""

    def _run(self, catalog, fusion):
        engine = NestGPU(
            catalog, options=EngineOptions(fusion=fusion), mode="nested"
        )
        sql = (
            "SELECT r_col1 FROM r WHERE r_col2 < "
            "(SELECT MAX(s_col2) FROM s WHERE s_col1 = r_col1 "
            "AND s_col3 < 6)"
        )
        return engine.execute(sql)

    def test_fused_vectorized_scan_one_launch_per_chain(self, rst_catalog):
        plain = self._run(rst_catalog, "off")
        fused = self._run(rst_catalog, "on")
        assert sorted(plain.rows) == sorted(fused.rows)
        stats = fused.stats
        assert stats.fused_launches >= 1
        # every fused launch absorbed more than one kernel: the saved
        # launches are exactly fused_kernels - fused_launches
        assert stats.fused_kernels > stats.fused_launches
        assert (
            stats.kernel_launches
            == plain.stats.kernel_launches
            - (stats.fused_kernels - stats.fused_launches)
        )
        assert stats.total_ns < plain.stats.total_ns


class TestFusionTuner:
    def test_decide_measures_once_and_caches(self):
        tuner = FusionTuner()
        calls = {"unfused": 0, "fused": 0}

        def unfused():
            calls["unfused"] += 1
            return 100.0

        def fused():
            calls["fused"] += 1
            return 60.0

        first = tuner.decide("fp", 0, 3, unfused, fused)
        assert first.fused and first.source == "tuned"
        assert first.fused_ns == 60.0 and first.unfused_ns == 100.0
        again = tuner.decide("fp", 0, 3, unfused, fused)
        assert again is first
        assert calls == {"unfused": 1, "fused": 1}
        assert tuner.stats()["hits"] == 1

    def test_tuner_prefers_unfused_when_it_wins(self):
        tuner = FusionTuner()
        decision = tuner.decide("fp", 0, 2, lambda: 50.0, lambda: 80.0)
        assert not decision.fused

    def test_version_bump_invalidates_cached_decision(self):
        tuner = FusionTuner()
        calls = []
        tuner.decide("fp", 0, 1, lambda: 10.0, lambda: (calls.append(1), 5.0)[1])
        fresh = tuner.decide("fp", 1, 1, lambda: 10.0, lambda: (calls.append(1), 5.0)[1])
        assert fresh.coefficients_version == 1
        assert len(calls) == 2  # re-measured, not served stale
        assert tuner.stats()["entries"] == 1  # overwritten, not grown


class TestFusionDecision:
    def test_off_sentinel(self):
        assert FUSION_OFF.source == "off" and not FUSION_OFF.fused

    def test_describe_mentions_measurements(self):
        decision = FusionDecision(
            source="tuned", fused=True, sites=4,
            fused_ns=50.0, unfused_ns=90.0, coefficients_version=2,
        )
        text = decision.describe()
        assert "tuned" in text

    def test_plan_wants_only_data_path_nodes(self, rst_catalog):
        engine = NestGPU(rst_catalog, options=EngineOptions(fusion="on"))
        prepared = engine.prepare(
            "SELECT r_col1 FROM r WHERE r_col2 > 5 AND r_col1 < 12"
        )
        assert prepared.fusion_decision.source == "forced"
        assert prepared.fusion_decision.sites >= 1
