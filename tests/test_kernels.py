"""Unit + property tests for the GPU primitive kernels.

Every primitive is checked against a plain-numpy oracle; hypothesis
drives the property cases.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorrelatedIndex
from repro.engine import ExecutionContext, Relation
from repro.engine import operators as ops
from repro.engine.relation import computed_column
from repro.gpu import Device, DeviceSpec, kernels
from repro.plan.expressions import ColRef
from repro.storage import BIGINT, DECIMAL, Catalog, Column


@pytest.fixture()
def device():
    return Device(DeviceSpec.v100())


int_arrays = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

nonempty_int_arrays = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))


class TestCompare:
    @pytest.mark.parametrize("op,func", [
        ("=", np.equal), ("!=", np.not_equal), ("<", np.less),
        ("<=", np.less_equal), (">", np.greater), (">=", np.greater_equal),
    ])
    def test_scalar_ops(self, device, op, func):
        data = np.array([1, 5, 3, 5, -2])
        assert (kernels.compare_scalar(device, data, op, 3) == func(data, 3)).all()

    def test_array_ops(self, device):
        a = np.array([1, 2, 3])
        b = np.array([3, 2, 1])
        assert (kernels.compare_arrays(device, a, b, "<") == [True, False, False]).all()

    def test_unknown_op(self, device):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            kernels.compare_scalar(device, np.array([1]), "~", 1)

    def test_charges_launch(self, device):
        kernels.compare_scalar(device, np.arange(10), "=", 5)
        assert device.stats.kernel_launches == 1
        assert device.stats.kernel_time_ns > 0


class TestLogicalAndIsin:
    def test_isin(self, device):
        mask = kernels.isin(device, np.array([1, 2, 3, 4]), np.array([2, 4]))
        assert (mask == [False, True, False, True]).all()

    def test_logical(self, device):
        a = np.array([True, True, False])
        b = np.array([True, False, False])
        assert (kernels.logical_and(device, a, b) == [True, False, False]).all()
        assert (kernels.logical_or(device, a, b) == [True, True, False]).all()
        assert (kernels.logical_not(device, a) == [False, False, True]).all()

    def test_arithmetic(self, device):
        a = np.array([1.0, 2.0])
        out = kernels.arithmetic(device, "*", a, 0.5, 2)
        assert (out == [0.5, 1.0]).all()

    def test_division_promotes(self, device):
        out = kernels.arithmetic(device, "/", np.array([3]), 2, 1)
        assert out.dtype == np.float64


class TestPrefixSumCompact:
    def test_compact(self, device):
        mask = np.array([False, True, False, True, True])
        assert (kernels.compact(device, mask) == [1, 3, 4]).all()

    def test_compact_empty(self, device):
        assert len(kernels.compact(device, np.zeros(5, dtype=bool))) == 0

    @given(mask=st.lists(st.booleans(), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_compact_matches_nonzero(self, mask):
        device = Device(DeviceSpec.v100())
        arr = np.asarray(mask, dtype=bool)
        assert (kernels.compact(device, arr) == np.nonzero(arr)[0]).all()

    def test_gather(self, device):
        out = kernels.gather(device, np.array([10, 20, 30]), np.array([2, 0]))
        assert (out == [30, 10]).all()


class TestReductions:
    def test_full_reductions(self, device):
        v = np.array([3.0, 1.0, 2.0])
        assert kernels.reduce_full(device, v, "min") == 1.0
        assert kernels.reduce_full(device, v, "max") == 3.0
        assert kernels.reduce_full(device, v, "sum") == 6.0
        assert kernels.reduce_full(device, v, "avg") == 2.0
        assert kernels.reduce_full(device, v, "count") == 3.0

    def test_empty_reductions(self, device):
        v = np.array([], dtype=np.float64)
        assert kernels.reduce_full(device, v, "count") == 0.0
        assert np.isnan(kernels.reduce_full(device, v, "avg"))

    def test_segmented_min(self, device):
        values = np.array([5.0, 1.0, 7.0, 2.0])
        seg = np.array([0, 0, 2, 2])
        out, counts = kernels.segmented_reduce(device, values, seg, 3, "min")
        assert out[0] == 1.0 and out[2] == 2.0
        assert counts[1] == 0  # empty segment

    def test_segmented_avg_empty_is_nan(self, device):
        out, counts = kernels.segmented_reduce(
            device, np.array([4.0]), np.array([1]), 3, "avg"
        )
        assert np.isnan(out[0]) and out[1] == 4.0

    def test_segmented_count(self, device):
        out, _ = kernels.segmented_reduce(
            device, None, np.array([0, 0, 1]), 3, "count"
        )
        assert (out == [2, 1, 0]).all()

    def test_segmented_any(self, device):
        flags = kernels.segmented_any(device, np.array([0, 0, 2]), 4)
        assert (flags == [True, False, True, False]).all()

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        num_segments=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_segmented_sum_matches_oracle(self, values, num_segments):
        device = Device(DeviceSpec.v100())
        arr = np.asarray(values)
        seg = np.arange(len(arr)) % num_segments
        out, _ = kernels.segmented_reduce(device, arr, seg, num_segments, "sum")
        for s in range(num_segments):
            expected = arr[seg == s].sum() if (seg == s).any() else 0.0
            assert out[s] == pytest.approx(expected)


class TestHashJoin:
    def test_build_probe_unique_keys(self, device):
        table = kernels.hash_build(device, np.array([10, 20, 30]))
        probe_idx, build_idx = kernels.hash_probe(
            device, table, np.array([20, 99, 10])
        )
        assert list(probe_idx) == [0, 2]
        assert list(build_idx) == [1, 0]

    def test_probe_with_duplicates(self, device):
        table = kernels.hash_build(device, np.array([1, 2, 2, 3]))
        probe_idx, build_idx = kernels.hash_probe(device, table, np.array([2]))
        assert list(probe_idx) == [0, 0]
        assert sorted(build_idx) == [1, 2]

    def test_semi_probe(self, device):
        table = kernels.hash_build(device, np.array([5, 7]))
        mask = kernels.semi_probe(device, table, np.array([7, 8, 5, 5]))
        assert (mask == [True, False, True, True]).all()

    @given(build=int_arrays, probe=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_join_matches_oracle(self, build, probe):
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, build)
        probe_idx, build_idx = kernels.hash_probe(device, table, probe)
        got = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        expected = sorted(
            (i, j)
            for i, p in enumerate(probe)
            for j, b in enumerate(build)
            if p == b
        )
        assert got == expected

    @given(build=int_arrays, probe=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_semi_matches_oracle(self, build, probe):
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, build)
        mask = kernels.semi_probe(device, table, probe)
        assert (mask == np.isin(probe, build)).all()


class TestSortGroup:
    def test_sort_single_key(self, device):
        order = kernels.sort_order(device, [np.array([3, 1, 2])], [False])
        assert list(order) == [1, 2, 0]

    def test_sort_descending(self, device):
        order = kernels.sort_order(device, [np.array([3, 1, 2])], [True])
        assert list(order) == [0, 2, 1]

    def test_sort_composite(self, device):
        a = np.array([1, 1, 0])
        b = np.array([2, 1, 9])
        order = kernels.sort_order(device, [a, b], [False, False])
        assert list(order) == [2, 1, 0]

    def test_sort_mixed_direction(self, device):
        a = np.array([1, 1, 0])
        b = np.array([2, 1, 9])
        order = kernels.sort_order(device, [a, b], [False, True])
        assert list(order) == [2, 0, 1]

    def test_group_ids(self, device):
        keys = [np.array([5, 3, 5, 3, 5])]
        gids, reps = kernels.group_ids(device, keys)
        assert len(reps) == 2
        assert gids[0] == gids[2] == gids[4]
        assert gids[1] == gids[3]

    def test_group_ids_composite(self, device):
        a = np.array([1, 1, 2])
        b = np.array([0, 1, 0])
        gids, reps = kernels.group_ids(device, [a, b])
        assert len(reps) == 3

    def test_group_ids_empty(self, device):
        gids, reps = kernels.group_ids(device, [np.array([], dtype=np.int64)])
        assert len(gids) == 0 and len(reps) == 0

    @given(keys=nonempty_int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_group_count_matches_unique(self, keys):
        device = Device(DeviceSpec.v100())
        gids, reps = kernels.group_ids(device, [keys])
        assert len(reps) == len(np.unique(keys))


class TestIndexSearch:
    def test_ranges(self, device):
        sorted_keys = np.array([1, 2, 2, 2, 5])
        lo, hi = kernels.binary_search_ranges(
            device, sorted_keys, np.array([2, 3, 5])
        )
        assert list(lo) == [1, 4, 4]
        assert list(hi) == [4, 4, 5]


# ---------------------------------------------------------------------------
# The key-lookup primitive (JoinHash.ranges + expand_ranges) against its
# predecessor.  The functions below are the parent commit's (429bc2a)
# implementations, kept verbatim as the oracle: two binary searches per
# key and the repeat/arange/cumsum expansion, written out per caller.
# ---------------------------------------------------------------------------


class RecordingDevice(Device):
    """A device that also keeps every (tag, elements, work) it charged."""

    def __init__(self):
        super().__init__(DeviceSpec.v100())
        self.launches = []

    def launch(self, tag, elements, work=1.0):
        self.launches.append((tag, int(elements), float(work)))
        return super().launch(tag, elements, work)


def parent_hash_probe(device, table, probe_keys):
    device.launch("hash_probe", len(probe_keys), work=2.0)
    lo = np.searchsorted(table.keys_sorted, probe_keys, side="left")
    hi = np.searchsorted(table.keys_sorted, probe_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    device.launch("join_expand", total)
    probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    build_idx = table.order[starts + offsets]
    return probe_idx, build_idx


def parent_semi_probe(device, table, probe_keys):
    device.launch("semi_probe", len(probe_keys), work=2.0)
    lo = np.searchsorted(table.keys_sorted, probe_keys, side="left")
    hi = np.searchsorted(table.keys_sorted, probe_keys, side="right")
    return (hi > lo,)


def parent_binary_search_ranges(device, sorted_keys, probe_values):
    n = len(probe_values)
    device.launch(
        "index_search", n, work=kernels._log_work(max(len(sorted_keys), 1))
    )
    lo = np.searchsorted(sorted_keys, probe_values, side="left")
    hi = np.searchsorted(sorted_keys, probe_values, side="right")
    return lo, hi


def parent_lookup_batch(device, index, values):
    lo, hi = parent_binary_search_ranges(device, index.keys_sorted, values)
    counts = hi - lo
    total = int(counts.sum())
    device.launch("index_gather", total)
    segments = np.repeat(np.arange(len(values)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = index.order[starts + offsets]
    return rows, segments


def parent_lookup(device, index, value):
    lo, hi = parent_binary_search_ranges(
        device, index.keys_sorted, np.asarray([value])
    )
    return (index.order[int(lo[0]) : int(hi[0])],)


def parent_compact(device, mask):
    mask = mask.astype(bool)
    n = len(mask)
    device.launch("prefix_sum", n, work=kernels._log_work(n))
    inclusive = np.cumsum(mask)
    total = int(inclusive[-1]) if n else 0
    positions = inclusive - mask  # exclusive scan
    device.launch("scatter", n)
    out = np.empty(total, dtype=np.int64)
    out[positions[mask]] = np.nonzero(mask)[0]
    return (out,)


def parent_left_lookup(ctx, child, inner, outer_key, inner_key, value_column,
                       output_name, default=0.0):
    inner_keys = ops._key_array(ctx, inner, inner_key, None)
    table = kernels.hash_build(ctx.device, inner_keys)
    outer_keys = ops._key_array(ctx, child, outer_key, None)
    ctx.device.launch("left_lookup", child.num_rows, work=2.0)
    lo = np.searchsorted(table.keys_sorted, outer_keys, side="left")
    hi = np.searchsorted(table.keys_sorted, outer_keys, side="right")
    matched = hi > lo
    values = np.full(child.num_rows, default, dtype=np.float64)
    if inner.num_rows:
        first = table.order[np.minimum(lo, len(table) - 1)]
        source = inner.column(value_column).data.astype(np.float64)
        values[matched] = source[first[matched]]
    out = Relation(
        {**child.columns, output_name: computed_column(output_name, values)},
        child.num_rows,
    )
    ops._materialize(ctx, out)
    ctx.operator_done()
    return out


def assert_identical(got, expected):
    """Same values, order and dtype kind, array by array (NaN == NaN)."""
    assert len(got) == len(expected)
    for new, old in zip(got, expected):
        assert new.dtype.kind == old.dtype.kind
        assert new.shape == old.shape
        np.testing.assert_array_equal(new, old)


def _key_cases():
    """Named (build keys, probe keys) pairs covering both lookup paths."""
    rng = np.random.default_rng(22)
    i64 = np.int64
    nan = np.nan
    wide = np.concatenate([np.arange(-40, 40), rng.integers(-40, 40, size=60)])
    return {
        "int64 duplicates, negatives, probes past both ends": (
            rng.integers(-50, 50, size=300), rng.integers(-90, 90, size=700)),
        "int32 keys": (
            rng.integers(-50, 50, size=300).astype(np.int32),
            rng.integers(-90, 90, size=700).astype(np.int32)),
        "uint32 keys": (
            rng.integers(0, 90, size=200).astype(np.uint32),
            rng.integers(0, 200, size=500).astype(np.uint32)),
        "uint8 build, int64 probe": (
            rng.integers(3, 250, size=80).astype(np.uint8),
            rng.integers(-20, 300, size=400)),
        "uint64 keys (no int64 image: sorted path)": (
            rng.integers(0, 90, size=200).astype(np.uint64),
            rng.integers(0, 200, size=500).astype(np.uint64)),
        "unique build (PK side)": (
            rng.permutation(500).astype(i64), rng.integers(-10, 520, size=900)),
        "empty build": (np.empty(0, dtype=i64), rng.integers(0, 9, size=50)),
        "empty probe": (rng.integers(0, 9, size=50), np.empty(0, dtype=i64)),
        "empty both": (np.empty(0, dtype=i64), np.empty(0, dtype=i64)),
        "all miss inside the span": (
            np.arange(0, 400, 2), np.arange(1, 400, 2)),
        "only the two sentinel slots": (
            np.arange(100, 200), np.array([-5, 99, 200, 10**15, -(10**15)])),
        "probes at the int64 limits": (
            wide, np.array([np.iinfo(i64).min, np.iinfo(i64).max, 0, -40, 39])),
        "build next to the int64 limit": (
            np.array([2**62 + 1, 2**62 + 3, 2**62 + 1]),
            np.array([2**62 + 1, 2**62 + 2, 0])),
        "float keys": (
            rng.integers(0, 30, size=100) / 2.0, rng.integers(0, 70, size=300) / 4.0),
        "NaN keys on both sides": (
            np.array([1.0, nan, 2.0, nan, 2.0]), np.array([nan, 2.0, 3.0, 1.0])),
        "float probes of an int build": (
            rng.integers(0, 40, size=120), np.array([3.0, 3.5, nan, -1.0, 39.0, 1e18])),
        "int probes of a float build": (
            np.array([1.0, 2.5, nan, 2.0, 2.0]), np.array([2, 1, 7])),
        "two keys 10^12 apart": (
            np.array([5, 5 + 10**12]), rng.integers(0, 10, size=2000)),
    }


KEY_CASES = _key_cases()
# cases that must stay on the two-searchsorted path and allocate no table
SORTED_PATH_CASES = {
    "uint64 keys (no int64 image: sorted path)", "empty build", "empty both",
    "build next to the int64 limit", "float keys", "NaN keys on both sides",
    "float probes of an int build", "int probes of a float build",
    "two keys 10^12 apart",
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
class TestKeyLookupAgainstParent:
    """New kernel == parent kernel: arrays and the launch list."""

    def _both(self, case, new_fn, parent_fn):
        build, probe = KEY_CASES[case]
        new_dev, old_dev = RecordingDevice(), RecordingDevice()
        table = kernels.hash_build(new_dev, build)
        reference = kernels.hash_build(old_dev, build)
        got = new_fn(new_dev, table, probe)
        assert_identical(
            got if isinstance(got, tuple) else (got,),
            parent_fn(old_dev, reference, probe),
        )
        assert new_dev.launches == old_dev.launches
        assert reference._dense is None  # the oracle never touched `ranges`
        assert (table._dense is None) == (case in SORTED_PATH_CASES)

    def test_hash_probe(self, case):
        self._both(case, kernels.hash_probe, parent_hash_probe)

    def test_semi_probe(self, case):
        self._both(case, kernels.semi_probe, parent_semi_probe)

    def test_ranges_equal_the_two_binary_searches(self, case):
        # stronger than any caller needs: `lo` agrees for misses too
        def new(device, table, probe):
            return kernels.binary_search_ranges(device, table, probe)

        def parent(device, table, probe):
            return parent_binary_search_ranges(device, table.keys_sorted, probe)

        self._both(case, new, parent)

    def test_index_lookup_batch_and_lookup(self, case):
        build, probe = KEY_CASES[case]
        new_dev, old_dev = RecordingDevice(), RecordingDevice()
        index = CorrelatedIndex.build(new_dev, build)
        reference = CorrelatedIndex.build(old_dev, build)
        assert_identical(
            index.lookup_batch(new_dev, probe),
            parent_lookup_batch(old_dev, reference, probe),
        )
        for value in probe[:5]:
            assert_identical(
                (index.lookup(new_dev, value),),
                parent_lookup(old_dev, reference, value),
            )
        assert new_dev.launches == old_dev.launches
        assert index.nbytes == build.nbytes + reference.order.nbytes

    def test_left_lookup(self, case):
        build, probe = KEY_CASES[case]
        payload = np.arange(len(build)) * 1.5 - 7.0

        def relations():
            ctx = ExecutionContext(Catalog([]), RecordingDevice())
            inner = Relation(
                {"i.k": _column("i.k", build), "i.v": computed_column("i.v", payload)},
                len(build),
            )
            child = Relation({"o.k": _column("o.k", probe)}, len(probe))
            return ctx, child, inner

        keys = (ColRef("o", "k", "int"), ColRef("i", "k", "int"))
        new_ctx, child, inner = relations()
        got = ops.left_lookup(new_ctx, child, inner, *keys, "i.v", "agg", 0.0)
        old_ctx, child, inner = relations()
        expected = parent_left_lookup(old_ctx, child, inner, *keys, "i.v", "agg", 0.0)
        assert list(got.columns) == list(expected.columns)
        assert_identical(
            [c.data for c in got.columns.values()],
            [c.data for c in expected.columns.values()],
        )
        assert new_ctx.device.launches == old_ctx.device.launches
        assert new_ctx.device.stats.total_ns == old_ctx.device.stats.total_ns


def _column(name, data):
    """Engine columns are int64, float64 or int32 codes; coerce like one."""
    dtype = DECIMAL if data.dtype.kind == "f" else BIGINT
    return Column(name, dtype, data)


# negatives wrap into large unsigned values, which exercises wide spans
typed_keys = st.builds(
    lambda xs, dtype: np.asarray(xs, dtype=np.int64).astype(dtype),
    st.lists(st.integers(min_value=-300, max_value=300), max_size=150),
    st.sampled_from([np.int64, np.int32, np.uint16, np.float64]),
)


class TestKeyLookupProperties:
    @given(build=typed_keys, probe=typed_keys)
    @settings(max_examples=150, deadline=None)
    def test_probe_kernels_match_parent(self, build, probe):
        new_dev, old_dev = RecordingDevice(), RecordingDevice()
        table = kernels.hash_build(new_dev, build)
        reference = kernels.hash_build(old_dev, build)
        assert_identical(
            kernels.hash_probe(new_dev, table, probe),
            parent_hash_probe(old_dev, reference, probe),
        )
        assert_identical(
            (kernels.semi_probe(new_dev, table, probe),),
            parent_semi_probe(old_dev, reference, probe),
        )
        assert new_dev.launches == old_dev.launches

    @given(mask=st.lists(st.integers(min_value=0, max_value=2), max_size=200),
           dtype=st.sampled_from([bool, np.int64, np.uint8, np.float64]))
    @settings(max_examples=80, deadline=None)
    def test_compact_matches_parent(self, mask, dtype):
        arr = np.asarray(mask, dtype=dtype)
        new_dev, old_dev = RecordingDevice(), RecordingDevice()
        assert_identical(
            (kernels.compact(new_dev, arr),), parent_compact(old_dev, arr)
        )
        assert new_dev.launches == old_dev.launches

    def test_compact_counts_nan_as_set_like_parent(self):
        arr = np.array([0.0, np.nan, 2.0, 0.0])
        assert_identical(
            (kernels.compact(RecordingDevice(), arr),),
            parent_compact(RecordingDevice(), arr),
        )


class TestDensityRule:
    """When the direct-address table is (not) built — read off the arrays."""

    def test_span_of_10_to_the_12_allocates_nothing(self):
        table = kernels.JoinHash.build(np.array([5, 5 + 10**12]))
        for _ in range(3):
            lo, counts = table.ranges(np.arange(100_000))
            assert counts.sum() == 1 and lo[5] == 0
        assert table._dense is None

    def test_narrow_probe_falls_back_then_wide_probe_builds(self):
        rng = np.random.default_rng(5)
        build = rng.choice(100_000, size=100, replace=False)
        table = kernels.JoinHash.build(build)
        device = RecordingDevice()
        one_key = build[:1]
        expected = parent_hash_probe(device, table, one_key)
        assert_identical(kernels.hash_probe(device, table, one_key), expected)
        assert table._dense is None  # 1 probe cannot pay for 100k slots
        wide = rng.integers(-1000, 101_000, size=50_000)
        expected = parent_hash_probe(device, table, wide)
        assert table._dense is None  # the oracle reads keys_sorted directly
        assert_identical(kernels.hash_probe(device, table, wide), expected)
        assert table._dense is not None
        # the hoisted table keeps answering from the dense table,
        # narrow probes included, and float probes still search
        built = table._dense
        for probe in (one_key, wide[:7], wide, wide.astype(np.float64) + 0.5):
            assert_identical(
                kernels.hash_probe(device, table, probe),
                parent_hash_probe(device, table, probe),
            )
            assert_identical(
                (kernels.semi_probe(device, table, probe),),
                parent_semi_probe(device, table, probe),
            )
        assert table._dense is built

    def test_dense_table_is_proportional_to_the_arrays(self):
        build = np.arange(0, 4000, 4)  # span 3997 over 1000 keys
        table = kernels.JoinHash.build(build)
        table.ranges(np.arange(10))
        base, top, first, count = table._dense
        assert len(first) == len(count) == top + 1 == 3997 + 2
        assert first[0] == 0 and count[0] == 0  # below-range sentinel
        assert first[top] == len(build) and count[top] == 0  # above-range
        assert table.nbytes == build.nbytes * 2  # modelled footprint unchanged

    def test_expand_ranges_orders_matches_by_probe_then_build(self):
        lo = np.array([3, 0, 7, 1])
        counts = np.array([2, 0, 1, 3])
        segments, positions, total = kernels.expand_ranges(lo, counts)
        assert total == 6
        assert list(segments) == [0, 0, 2, 3, 3, 3]
        assert list(positions) == [3, 4, 7, 1, 2, 3]
        # at most one match per probe: the compaction shortcut
        segments, positions, total = kernels.expand_ranges(lo, np.array([1, 0, 0, 1]))
        assert (list(segments), list(positions), total) == ([0, 3], [3, 1], 2)


# ---------------------------------------------------------------------------
# The ordering primitive (stable_order) against its predecessor.  The
# functions below are the parent commit's (1535b87) host sorts, kept
# verbatim as the oracle: np.lexsort for ORDER BY / index build / GROUP BY
# and np.argsort(kind="stable") for the join build.
# ---------------------------------------------------------------------------

CUTOFF = kernels._PACK_MIN_ROWS


def parent_sort_order(device, keys, descending):
    n = len(keys[0])
    device.launch("sort", n, work=kernels._log_work(max(n, 1)) * 2.0)
    adjusted = [(-k if desc else k) for k, desc in zip(keys, descending)]
    return np.lexsort(adjusted[::-1])


def parent_group_ids(device, keys):
    n = len(keys[0])
    device.launch("group_by", n, work=kernels._log_work(max(n, 1)) * 2.0)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort(keys[::-1])
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in keys:
        sorted_key = key[order]
        changed[1:] |= sorted_key[1:] != sorted_key[:-1]
    gid_sorted = np.cumsum(changed) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = gid_sorted
    return ids, order[changed]


def parent_join_build(keys):
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def parent_index_build(device, values):
    order = parent_sort_order(device, [values], [False])
    return values[order], order


def _order_cases(n):
    """Named key lists of ``n`` rows covering every rule of stable_order."""
    rng = np.random.default_rng(23 + n)
    i64 = rng.integers(-(n // 6) - 3, n // 6 + 3, size=n)
    swapped = np.sort(i64)
    if n > 1:
        swapped[[n // 3, n // 3 + 1]] = swapped[[n // 3 + 1, n // 3]] + [1, 0]
    floats = rng.integers(0, 50, size=n) / 4.0
    nans = floats.copy()
    nans[rng.random(n) < 0.2] = np.nan
    limits = np.iinfo(np.int64)
    return {
        "int64 negatives, heavy duplicates": [i64],
        "int64 unique (random permutation)": [rng.permutation(n)],
        "int32 over its whole range": [
            rng.integers(-2**31, 2**31, size=n).astype(np.int32)],
        "uint16": [rng.integers(0, 2**16, size=n).astype(np.uint16)],
        "bool": [rng.integers(0, 2, size=n).astype(bool)],
        "all equal": [np.full(n, 7)],
        "presorted": [np.sort(i64)],
        "presorted float": [np.sort(floats)],
        "reverse sorted": [np.sort(i64)[::-1]],
        "presorted with one swap": [swapped],
        "two keys": [rng.integers(0, 5, size=n), i64.astype(np.int32)],
        "four keys": [
            rng.integers(0, 2, size=n).astype(bool),
            rng.integers(0, 3, size=n).astype(np.uint16),
            rng.integers(-2, 2, size=n).astype(np.int32),
            rng.integers(0, 4, size=n)],
        "two keys spanning 2^40 each (product does not fit)": [
            rng.integers(0, 2**40, size=n), rng.integers(-2**39, 2**39, size=n)],
        "int64 at both limits (span 2^64)": [
            rng.choice([limits.min, limits.max, 0, -1], size=n)],
        "uint64": [rng.integers(0, 90, size=n).astype(np.uint64)],
        "float": [floats],
        "NaN": [nans],
        "int key then float key": [rng.integers(0, 5, size=n), nans],
    }


# cases for which, at or above the cutoff, the parent's lexsort must run
LEXSORT_CASES = {
    "two keys spanning 2^40 each (product does not fit)",
    "int64 at both limits (span 2^64)", "uint64", "float", "NaN",
    "int key then float key",
}
ORDER_SIZES = [0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, 120_000]
ORDER_CASES = sorted(_order_cases(0))


def _frozen(keys):
    """Read-only views: any in-place write by the kernel raises."""
    views = [key.view() for key in keys]
    for view in views:
        view.flags.writeable = False
    return views


def assert_orders_match_parent(keys):
    """stable_order and every kernel built on it vs the parent's sorts."""
    before = [key.copy() for key in keys]
    keys = _frozen(keys)
    expected = np.lexsort(keys[::-1])
    assert_identical((kernels.stable_order(keys),), (expected,))
    new_dev, old_dev = RecordingDevice(), RecordingDevice()
    flags = [[False] * len(keys)]
    if all(key.dtype.kind != "b" for key in keys):  # -bool is a TypeError
        flags += [[True] * len(keys), [i % 2 == 0 for i in range(len(keys))]]
    for descending in flags:
        assert_identical(
            (kernels.sort_order(new_dev, keys, descending),),
            (parent_sort_order(old_dev, keys, descending),),
        )
    assert_identical(
        kernels.group_ids(new_dev, keys), parent_group_ids(old_dev, keys)
    )
    if len(keys) == 1:
        assert_identical(
            (expected,), (np.argsort(keys[0], kind="stable"),)
        )
        table = kernels.JoinHash.build(keys[0])
        assert_identical(
            (table.keys_sorted, table.order), parent_join_build(keys[0])
        )
        index = CorrelatedIndex.build(new_dev, keys[0])
        assert type(index) is CorrelatedIndex
        assert_identical(
            (index.keys_sorted, index.order),
            parent_index_build(old_dev, keys[0]),
        )
    assert new_dev.launches == old_dev.launches
    assert new_dev.stats.total_ns == old_dev.stats.total_ns
    for key, original in zip(keys, before):
        np.testing.assert_array_equal(key, original)


@pytest.mark.parametrize("n", ORDER_SIZES)
@pytest.mark.parametrize("case", ORDER_CASES)
def test_stable_order_matches_parent(case, n):
    assert_orders_match_parent(_order_cases(n)[case])


@pytest.mark.parametrize("case", ORDER_CASES)
def test_stable_order_rule_taken(case):
    """Which numpy call answers: lexsort exactly where the parent's
    semantics could differ, never for packable or presorted keys."""
    keys = _order_cases(CUTOFF + 1)[case]
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        kernels.stable_order(keys)
        assert lexsort.call_count == (1 if case in LEXSORT_CASES else 0)
        # under the cutoff the parent's call runs unchanged, whatever the keys
        lexsort.reset_mock()
        kernels.stable_order([key[: CUTOFF - 1] for key in keys])
        assert lexsort.call_count == 1


def test_packed_path_sorts_120k_random_int64_without_lexsort():
    """The suite cannot pass by always falling back."""
    keys = np.random.default_rng(0).integers(0, 20_000, size=120_000)
    expected = np.lexsort([keys])
    with mock.patch.object(np, "lexsort", side_effect=AssertionError), \
            mock.patch.object(np, "argsort", side_effect=AssertionError):
        order = kernels.stable_order([keys])
        table = kernels.JoinHash.build(keys)
    assert_identical((order, table.order), (expected, expected))


def test_presorted_key_is_the_identity_without_sorting_or_packing():
    keys = np.sort(np.random.default_rng(1).integers(0, 9_000, size=80_000))
    with mock.patch.object(np, "lexsort", side_effect=AssertionError), \
            mock.patch.object(np, "subtract", side_effect=AssertionError):
        order = kernels.stable_order([keys])
    assert_identical((order,), (np.arange(80_000),))


order_key_lists = st.integers(min_value=0, max_value=120).flatmap(
    lambda n: st.lists(
        st.builds(
            lambda xs, dtype: np.asarray(xs, dtype=np.int64).astype(dtype),
            st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                     min_size=n, max_size=n)
            | st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=n, max_size=n),
            st.sampled_from(
                [np.int64, np.int32, np.uint16, bool, np.uint64, np.float64]),
        ),
        min_size=1, max_size=4,
    )
)


class TestStableOrderProperties:
    @given(keys=order_key_lists, nan_every=st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_every_rule_matches_parent_on_small_inputs(self, keys, nan_every):
        """The cutoff lowered to 2 rows, so hypothesis-sized inputs reach
        the presorted and packed rules as well as the fallback."""
        if nan_every:
            keys = [
                np.where(np.arange(len(k)) % nan_every == 0, np.nan, k)
                if k.dtype.kind == "f" else k
                for k in keys
            ]
        with mock.patch.object(kernels, "_PACK_MIN_ROWS", 2):
            assert_orders_match_parent(keys)
