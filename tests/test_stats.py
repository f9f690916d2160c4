"""ExecutionStats arithmetic: copy, level fields, and derived fractions."""

from dataclasses import fields

from repro.gpu import ExecutionStats
from repro.gpu.stats import _LEVEL_FIELDS


def _sample() -> ExecutionStats:
    stats = ExecutionStats(
        kernel_launches=5,
        kernel_time_ns=1000.0,
        materialize_bytes=64,
        materialize_time_ns=200.0,
        h2d_bytes=128,
        h2d_time_ns=300.0,
        d2h_bytes=32,
        d2h_time_ns=100.0,
        malloc_calls=2,
        malloc_time_ns=50.0,
        peak_device_bytes=4096,
    )
    stats.kernel_time_by_tag = {"sort": 600.0, "scan_compare": 400.0}
    stats.launches_by_tag = {"sort": 2, "scan_compare": 3}
    return stats


class TestCopy:
    def test_copy_equals_original(self):
        stats = _sample()
        clone = stats.copy()
        for spec in fields(stats):
            assert getattr(clone, spec.name) == getattr(stats, spec.name)

    def test_copy_is_independent(self):
        stats = _sample()
        clone = stats.copy()
        clone.kernel_launches += 1
        clone.kernel_time_by_tag["sort"] += 1.0
        clone.launches_by_tag["new_tag"] = 9
        assert stats.kernel_launches == 5
        assert stats.kernel_time_by_tag["sort"] == 600.0
        assert "new_tag" not in stats.launches_by_tag


class TestLevelFields:
    def test_level_fields_exist(self):
        names = {spec.name for spec in fields(ExecutionStats())}
        assert _LEVEL_FIELDS <= names


class TestDerived:
    def test_transfer_fraction(self):
        stats = _sample()
        assert stats.transfer_fraction == 400.0 / stats.total_ns

    def test_transfer_fraction_zero_total(self):
        assert ExecutionStats().transfer_fraction == 0.0

