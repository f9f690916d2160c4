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



def _parent_copy(stats):
    """``copy`` as it was written before the field split was kept."""
    clone = ExecutionStats()
    for spec in fields(stats):
        value = getattr(stats, spec.name)
        setattr(clone, spec.name, dict(value) if isinstance(value, dict) else value)
    return clone


def _parent_accumulate(mine, other):
    for spec in fields(mine):
        value = getattr(other, spec.name)
        if spec.name in _LEVEL_FIELDS:
            setattr(mine, spec.name, max(getattr(mine, spec.name), value))
        elif isinstance(value, dict):
            tags = getattr(mine, spec.name)
            for tag, amount in value.items():
                tags[tag] = tags.get(tag, type(amount)()) + amount
        else:
            setattr(mine, spec.name, getattr(mine, spec.name) + value)


def _distinct(offset: int) -> ExecutionStats:
    """Every field set to its own value (dicts: an own tag and a shared one)."""
    stats = ExecutionStats()
    for i, spec in enumerate(fields(stats)):
        value = getattr(stats, spec.name)
        if isinstance(value, dict):
            setattr(stats, spec.name, {f"own{offset}": 1.5 * i, "shared": i + offset})
        else:
            setattr(stats, spec.name, type(value)(7 * i + offset))
    return stats


def _state(stats):
    return {spec.name: getattr(stats, spec.name) for spec in fields(stats)}


class TestFieldSplitAgainstParent:
    def test_copy_treats_every_field_as_before(self):
        stats = _distinct(3)
        clone, expected = stats.copy(), _parent_copy(stats)
        assert _state(clone) == _state(expected)
        assert type(clone) is ExecutionStats
        for spec in fields(stats):
            if isinstance(getattr(stats, spec.name), dict):
                assert getattr(clone, spec.name) is not getattr(stats, spec.name)

    def test_accumulate_treats_every_field_as_before(self):
        # the level field is larger on either side in one of the two folds
        for low, high in ((2, 900), (900, 2)):
            mine, expected = _distinct(low), _distinct(low)
            mine.accumulate(_distinct(high))
            _parent_accumulate(expected, _distinct(high))
            assert _state(mine) == _state(expected)
            for name in _LEVEL_FIELDS:
                assert getattr(mine, name) == max(
                    getattr(_distinct(low), name), getattr(_distinct(high), name))
