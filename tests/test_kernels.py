"""Unit + property tests for the GPU primitive kernels.

Every primitive is checked against a plain-numpy oracle; hypothesis
drives the property cases.
"""

import dataclasses
import sys
import threading
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CorrelatedIndex, vectorize
from repro.engine import ExecutionContext, Relation
from repro.engine import operators as ops
from repro.engine.relation import computed_column
from repro.gpu import Device, DeviceSpec, kernels
from repro.plan.expressions import ColRef, Compare, ParamRef
from repro.plan.nodes import Scan
from repro.serve import EngineSession, paper_mix_statements
from repro.storage import BIGINT, DECIMAL, Catalog, Column
from repro.tpch import TPCH_Q17, generate_tpch


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


INT_DTYPES = ("int8", "int16", "int32", "int64",
              "uint8", "uint16", "uint32", "uint64")


def _ints(dtype) -> st.SearchStrategy:
    """Small codes near the value lists, the dtype's ends, anything."""
    info = np.iinfo(dtype)
    low, high = int(info.min), int(info.max)
    return st.one_of(
        st.integers(max(low, -5), 40),
        st.sampled_from([low, low + 1, high - 1, high]),
        st.integers(low, high),
    )


@st.composite
def isin_cases(draw):
    data_dtype = draw(st.sampled_from(INT_DTYPES))
    # the binder's code lists are int64
    values_dtype = draw(st.sampled_from(("int64", data_dtype, "uint64")))
    data = draw(st.lists(_ints(data_dtype), max_size=60))
    values = draw(st.lists(_ints(values_dtype), max_size=8))
    duplicates = draw(st.lists(st.sampled_from(values), max_size=3)) if values else []
    return (np.asarray(data, dtype=data_dtype),
            np.asarray(values + duplicates, dtype=values_dtype))


class TestLogicalAndIsin:
    def test_isin(self, device):
        mask = kernels.isin(device, np.array([1, 2, 3, 4]), np.array([2, 4]))
        assert (mask == [False, True, False, True]).all()

    @given(case=isin_cases())
    @example(case=(  # uint64 data wraps negative: -1 must not match it
        np.array([2**64 - 1, 1, 2**63], dtype=np.uint64),
        np.array([-1, 1, 1], dtype=np.int64),
    ))
    @example(case=(
        np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64),
        np.array([3, 0], dtype=np.uint64),
    ))
    @settings(max_examples=200, deadline=None)
    def test_isin_matches_np_isin_over_integer_dtypes(self, case):
        data, values = case
        recorder = RecordingDevice()
        mask = kernels.isin(recorder, data, values)
        assert mask.dtype == bool and (mask == np.isin(data, values)).all()
        assert recorder.launches == [("scan_isin", len(data), 2.0)]

    def test_integer_codes_gather_and_float_or_nan_takes_np_isin(self, device):
        codes = np.array([-3, 0, 5, 9, 200, -32768], dtype=np.int16)
        with mock.patch.object(np, "isin", wraps=np.isin) as spy:
            mask = kernels.isin(device, codes, np.array([0, 5, 120]))
            assert spy.call_count == 0
            assert mask.tolist() == [False, True, True, False, False, False]
            floats = np.array([1.0, np.nan, 2.5])
            mask = kernels.isin(device, floats, np.array([np.nan, 2.5]))
            assert spy.call_count == 1
            assert mask.tolist() == np.isin(floats, [np.nan, 2.5]).tolist()

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
        index = kernels.JoinHash(np.array([1, 2, 2, 2, 5]), None)
        lo, count = kernels.binary_search_ranges(
            device, index, np.array([2, 3, 5])
        )
        assert list(lo) == [1, 4, 4]
        assert list(lo + count) == [4, 4, 5]


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
        "unique dense build with gaps, probes past both ends": (
            rng.choice(np.arange(200, 900), size=300, replace=False),
            rng.integers(0, 1100, size=800)),
        "repeated keys, narrow span": (
            rng.integers(10, 20, size=400), rng.integers(0, 30, size=300)),
        "bool keys": (
            rng.integers(0, 2, size=40).astype(bool),
            rng.integers(0, 2, size=90).astype(bool)),
        "bool unique build": (np.array([True, False]), np.array([False, True, True])),
        "uint8 keys": (
            rng.permutation(256)[:200].astype(np.uint8),
            rng.integers(0, 256, size=500).astype(np.uint8)),
        "empty build, float probes": (
            np.empty(0, dtype=i64), np.array([1.0, nan, -3.5, 2.0])),
    }


KEY_CASES = _key_cases()
# Which path answers each case's probes: "row map" (unique integer keys:
# a slot -> build row table), "ranges" (repeated integer keys: first[] /
# count[] slots, sorted only to expand a run), "sorted search" (the two
# binary searches over the sorted keys) or "empty" (an empty build:
# answered without looking).
KEY_PATHS = {
    "int64 duplicates, negatives, probes past both ends": "ranges",
    "int32 keys": "ranges",
    "uint32 keys": "ranges",
    "uint8 build, int64 probe": "ranges",
    "uint64 keys (no int64 image: sorted path)": "sorted search",
    "unique build (PK side)": "row map",
    "empty build": "empty",
    "empty probe": "ranges",
    "empty both": "empty",
    "all miss inside the span": "row map",
    "only the two sentinel slots": "row map",
    "probes at the int64 limits": "ranges",
    "build next to the int64 limit": "sorted search",
    "float keys": "sorted search",
    "NaN keys on both sides": "sorted search",
    "float probes of an int build": "sorted search",
    "int probes of a float build": "sorted search",
    "two keys 10^12 apart": "sorted search",
    "unique dense build with gaps, probes past both ends": "row map",
    "repeated keys, narrow span": "ranges",
    "bool keys": "ranges",
    "bool unique build": "row map",
    "uint8 keys": "row map",
    "empty build, float probes": "empty",
}


def path_taken(table):
    """Which of the KEY_PATHS answered ``table``'s probes so far."""
    if not len(table):
        assert table._dense is None and table._sorted is None
        return "empty"
    if table._dense is None:
        return "sorted search"
    return "ranges" if table._dense.row is None else "row map"


def assert_path(table, case, expands):
    """``case`` took its KEY_PATHS path and sorted only if it had to:
    for the binary searches, or to expand a repeated key's run."""
    path = path_taken(table)
    assert path == KEY_PATHS[case]
    needs_sort = path == "sorted search" or (path == "ranges" and expands)
    assert (table._sorted is not None) == needs_sort


@pytest.mark.parametrize("case", sorted(KEY_CASES))
class TestKeyLookupAgainstParent:
    """New kernel == parent kernel: arrays and the launch list."""

    def _both(self, case, new_fn, parent_fn, expands=False, table=None):
        build, probe = KEY_CASES[case]
        new_dev, old_dev = RecordingDevice(), RecordingDevice()
        if table is None:
            table = kernels.hash_build(new_dev, build)
            reference = kernels.hash_build(old_dev, build)
            # the parent's footprint, read without forcing the sort
            assert table.nbytes == build.nbytes + 8 * len(build)
            assert table._sorted is None
        else:  # built and charged before: compare the probe's launches
            reference = kernels.JoinHash.build(build)
        got = new_fn(new_dev, table, probe)
        assert_identical(
            got if isinstance(got, tuple) else (got,),
            parent_fn(old_dev, reference, probe),
        )
        assert new_dev.launches == old_dev.launches
        assert table.nbytes == reference.keys_sorted.nbytes + reference.order.nbytes
        assert reference._dense is None  # the oracle never touched `ranges`
        assert_path(table, case, expands)
        return table

    def test_hash_probe(self, case):
        self._both(case, kernels.hash_probe, parent_hash_probe, expands=True)

    def test_semi_probe(self, case):
        self._both(case, kernels.semi_probe, parent_semi_probe)

    def test_semi_probe_then_hash_probe_on_one_table(self, case):
        # a presence answer needs no sort; the later expansion may
        table = self._both(case, kernels.semi_probe, parent_semi_probe)
        assert table._first is None  # nor a run's position
        self._both(case, kernels.hash_probe, parent_hash_probe, expands=True,
                   table=table)

    def test_ranges_equal_the_two_binary_searches(self, case):
        # stronger than any caller needs: `lo` agrees for misses too
        def new(device, table, probe):
            lo, counts = kernels.binary_search_ranges(device, table, probe)
            return lo, lo + counts

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
        # a table handed its sort holds keys in sorted order: no row map
        assert_identical(
            kernels.hash_probe(new_dev, index, probe),
            parent_hash_probe(old_dev, reference, probe),
        )
        assert index._dense is None or index._dense.row is None

    def test_left_lookup(self, case):
        assert_left_lookup_matches_parent(*KEY_CASES[case])


def assert_left_lookup_matches_parent(build, probe):
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


class _ScanProgram:
    """The members of a SubqueryProgram the unindexed segment scan reads."""

    def __init__(self, base):
        self.ctx = ExecutionContext(Catalog([]), RecordingDevice())
        self.base, self.fused, self.stages = base, False, None

    def base_relation(self, node):
        return self.base

    def scan_index(self, node, base, key_col):
        return None


def parent_segment_scan(ctx, base, keys, params):
    """The parent's unindexed `_eval_scan`: the parameters sorted as the
    build, every base key probed, the matches ordered parameter-major."""
    ctx.device.launch("scan_compare", base.num_rows * len(params))
    order = np.argsort(params, kind="stable")
    lo = np.searchsorted(params[order], keys, side="left")
    hi = np.searchsorted(params[order], keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(keys)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    seg = order[starts + offsets]
    by_param = np.argsort(seg, kind="stable")
    rows, seg = rows[by_param], seg[by_param]
    ops._materialize(ctx, base.take_no_charge(rows))
    ctx.operator_done()
    return rows, seg


def assert_segment_scan_matches_parent(params, keys):
    base = Relation(
        {"t.k": _column("t.k", keys),
         "t.id": computed_column("t.id", np.arange(len(keys), dtype=np.float64))},
        len(keys),
    )
    node = Scan("t", "t", [Compare("=", ColRef("t", "k", "int"), ParamRef("o.k", "int"))])
    sp = _ScanProgram(base)
    out = vectorize._eval_scan(sp, node, {"o.k": params}, len(params))
    old = _ScanProgram(base)
    rows, seg = parent_segment_scan(old.ctx, base, base.column("t.k").data, params)
    assert_identical((out.rel.column("t.id").data, out.seg), (rows.astype(np.float64), seg))
    assert sp.ctx.device.launches == old.ctx.device.launches


# integer builds the direct-address paths answer, unique (the row map) or
# with repeats (first[]/count[]), probed past both ends
int_builds = st.builds(
    lambda xs, dtype: np.asarray(xs, dtype=np.int64).astype(dtype),
    st.lists(st.integers(-200, 200), max_size=120, unique=True)
    | st.lists(st.integers(-15, 15), max_size=120),
    st.sampled_from([np.int64, np.int32]),
)
int_probes = st.lists(st.integers(-260, 260), max_size=150).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


class TestIntegerBuildsAgainstParent:
    @given(build=int_builds, probe=int_probes)
    @settings(max_examples=60, deadline=None)
    def test_every_key_lookup_matches_parent(self, build, probe):
        new_dev, old_dev = RecordingDevice(), RecordingDevice()
        table = kernels.hash_build(new_dev, build)
        reference = kernels.hash_build(old_dev, build)
        # presence first: the later expansion must not depend on it
        assert_identical(
            (kernels.semi_probe(new_dev, table, probe),),
            parent_semi_probe(old_dev, reference, probe),
        )
        assert_identical(
            kernels.hash_probe(new_dev, table, probe),
            parent_hash_probe(old_dev, reference, probe),
        )
        assert new_dev.launches == old_dev.launches
        unique = len(np.unique(build)) == len(build)
        assert path_taken(table) == (
            "empty" if not len(build) else "row map" if unique else "ranges")
        assert (table._sorted is not None) == (len(build) > 0 and not unique)
        assert_left_lookup_matches_parent(build, probe)
        assert_segment_scan_matches_parent(build, probe)


def test_one_table_probed_from_more_threads_than_cores():
    """The lazy sort, direct table and run starts are each published by
    one assignment: however the threads interleave, a shared table
    answers every probe as the parent did."""
    cases = ["int64 duplicates, negatives, probes past both ends", "float keys"]
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in cases * 10:
            build, probe = KEY_CASES[case]
            reference = kernels.JoinHash.build(build)
            expected = parent_hash_probe(RecordingDevice(), reference, probe)
            (present,) = parent_semi_probe(RecordingDevice(), reference, probe)
            table, answers = kernels.JoinHash.build(build), []

            def probe_table():
                answers.append((*table.matches(probe), table.contains(probe)))

            threads = [threading.Thread(target=probe_table) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(answers) == len(threads)
            for answer in answers:
                assert_identical(answer, (*expected, present))
    finally:
        sys.setswitchinterval(before)


def test_warm_paper_mix_sorts_no_build_and_searches_no_key():
    """Tier-1 twin of CI's "Warm paper-mix profile" step (a time share
    there, a count here): every paper-mix build has unique keys or feeds
    a semi-join, so a warm pass answers each lookup by direct address."""
    mix = paper_mix_statements()
    session = EngineSession(generate_tpch(10))
    for sql in mix:
        session.execute(sql)  # warm the plan cache and residency
    with ExitStack() as stack:
        calls = {
            name: stack.enter_context(mock.patch.object(
                kernels.JoinHash, name, autospec=True,
                side_effect=getattr(kernels.JoinHash, name)))
            for name in ("_direct", "_sort", "_search")
        }
        for sql in mix:
            session.execute(sql)
    assert calls["_direct"].call_count > 0  # the spies are live
    assert calls["_sort"].call_count == 0
    assert calls["_search"].call_count == 0


def probe_sort_of(probe):
    """A probe column's kept sort as ``Table.sorted_column`` keeps it,
    with its distinct count: what ``operators._probe_keys`` hands over."""
    order = kernels.stable_order([probe]) if len(probe) else np.arange(0)
    return probe[order], order, max(1, len(np.unique(probe)))


def parent_first_matches(table, probe):
    probe_idx, build_idx = parent_hash_probe(RecordingDevice(), table, probe)
    first = np.unique(probe_idx, return_index=True)[1]
    return probe_idx[first], build_idx[first]


_I64 = np.iinfo(np.int64)
_I32 = np.iinfo(np.int32)
# small keys collide (duplicates on both sides, hits and misses); the
# sampled ones sit at the int64 limits and within 2^62 of them
edge_keys = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([
        int(_I64.min), int(_I64.min) + 1, -(2**62) - 1, -(2**62), 2**62,
        2**62 + 1, int(_I64.max) - 1, int(_I64.max),
    ]),
)
edge_arrays = st.builds(
    lambda xs, dtype: (
        np.asarray(xs, dtype=np.int64) if dtype is np.int64
        else np.clip(np.asarray(xs, dtype=np.int64), _I32.min, _I32.max).astype(np.int32)
    ),
    st.lists(edge_keys, max_size=80),
    st.sampled_from([np.int64, np.int32]),
)


class TestProbeSortPath:
    """Answering from the probe column's kept sort changes no answer."""

    @given(build=edge_arrays, probe=edge_arrays, forced=st.booleans())
    @settings(max_examples=200, deadline=None)
    @example(build=np.empty(0, np.int64), probe=np.arange(5), forced=True)
    @example(build=np.array([7, 7, -3]), probe=np.arange(-2, 3), forced=True)
    def test_lookups_match_parent_and_todays_paths(self, build, probe, forced):
        sort = probe_sort_of(probe)
        reference = kernels.JoinHash.build(build)
        expected = parent_hash_probe(RecordingDevice(), reference, probe)
        pays = (lambda *_: True) if forced else kernels._probe_sort_pays
        with mock.patch.object(kernels, "_probe_sort_pays", pays):
            new_dev, old_dev = RecordingDevice(), RecordingDevice()
            got = kernels.hash_probe(new_dev, kernels.JoinHash.build(build), probe, sort)
            parent_hash_probe(old_dev, reference, probe)
            assert new_dev.launches == old_dev.launches  # charged as ever
            assert_identical(got, expected)
            assert_identical(got, kernels.JoinHash.build(build).matches(probe))
            assert_identical(
                kernels.JoinHash.build(build).first_matches(probe, sort),
                parent_first_matches(reference, probe),
            )
            assert_identical(
                kernels.JoinHash.build(build).first_matches(probe, sort),
                kernels.JoinHash.build(build).first_matches(probe),
            )
            assert_identical(
                (kernels.semi_probe(RecordingDevice(), kernels.JoinHash.build(build),
                                    probe, sort),),
                parent_semi_probe(RecordingDevice(), reference, probe),
            )
            # a table handed its sort (the correlated index) keeps keys
            # in sorted order, not build order: it declines the path
            handed = kernels.JoinHash(build[kernels.stable_order([build])],
                                      kernels.stable_order([build]))
            assert_identical(handed.matches(probe, sort), expected)
            if forced and len(build):
                table = kernels.JoinHash.build(build)
                assert table._by_probe_sort(len(probe), sort) is not None
                table.matches(probe, sort)
                assert table._dense is None and table._sorted is None

    @pytest.mark.parametrize("case", [
        "float keys", "NaN keys on both sides", "float probes of an int build",
        "int probes of a float build", "uint64 keys (no int64 image: sorted path)",
    ])
    def test_float_nan_and_uint64_keys_never_take_the_path(self, case):
        build, probe = KEY_CASES[case]
        with mock.patch.object(kernels, "_probe_sort_pays", lambda *_: True):
            table = kernels.JoinHash.build(build)
            assert table._by_probe_sort(len(probe), probe_sort_of(probe)) is None
            assert_identical(
                table.matches(probe, probe_sort_of(probe)),
                parent_hash_probe(RecordingDevice(), table, probe),
            )

    def test_the_rule_keeps_a_wide_build_on_the_direct_path(self):
        rng = np.random.default_rng(3)
        probe = rng.integers(0, 20_000, size=120_000)
        sort = probe_sort_of(probe)
        narrow = kernels.JoinHash.build(rng.choice(20_000, 16, replace=False))
        wide = kernels.JoinHash.build(rng.choice(20_000, 2_000, replace=False))
        assert narrow._by_probe_sort(len(probe), sort) is not None
        assert wide._by_probe_sort(len(probe), sort) is None


def _result_fields(result):
    return {
        spec.name: repr(getattr(result, spec.name))
        for spec in dataclasses.fields(result)
    }


def test_warm_q17_with_and_without_the_probe_sort_path_is_identical():
    """Rows, every ExecutionStats field and every result counter of a
    warm Q17 are the same whichever path answers its outer join."""
    session = EngineSession(generate_tpch(10))
    session.execute(TPCH_Q17)  # sorts l_partkey for the correlated index
    with mock.patch.object(kernels.JoinHash, "_by_probe_sort",
                           lambda *_: None):
        off = session.execute(TPCH_Q17)
    on = session.execute(TPCH_Q17)
    # `stats` is compared through its dataclass repr: every field
    assert _result_fields(on) == _result_fields(off)


#: The (table, column) sorts a warm paper-mix pass keeps: the correlated
#: indexes' own.  The probe-sort rule reads kept sorts and makes none.
SORTED_AFTER_WARM_MIX = [("lineitem", "l_partkey"), ("partsupp", "ps_partkey")]


def test_warm_q17_joins_through_the_probe_sort_and_sorts_nothing_new():
    """Tier-1 twin of CI's "Warm Q17 joins through the probe sort" step."""
    catalog = generate_tpch(10, use_cache=False)
    session = EngineSession(catalog)
    mix = paper_mix_statements()
    for sql in mix:
        session.execute(sql)
    answered, original = [], kernels.JoinHash._by_probe_sort

    def spy(self, probes, probe_sort):
        pairs = original(self, probes, probe_sort)
        answered.append(pairs is not None)
        return pairs

    with mock.patch.object(kernels.JoinHash, "_by_probe_sort", spy):
        session.execute(TPCH_Q17)
        assert answered.count(True) == 1  # the outer lineitem join
        for sql in mix:
            session.execute(sql)
    assert sorted(
        (table.name, column) for table in catalog
        for column in table.column_names if table.kept_sort(column) is not None
    ) == SORTED_AFTER_WARM_MIX


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
        base, top, count, present, row = table._dense
        first = table._first
        assert len(first) == len(count) == len(present) == len(row) == top + 1 == 3997 + 2
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
