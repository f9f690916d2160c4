"""Partitioning properties: every scheme is a permutation of the table.

The load-bearing property for sharded execution is that a partitioning
neither loses nor duplicates rows (the scatter-gather union is exactly
the base table) and that hash partitioning co-locates equal keys (the
shuffle strategy's correctness requirement).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.storage import Table, int_type
from repro.storage.partition import (
    PartitionSpec,
    hash_buckets,
    partition_indices,
    partition_table,
)

INT = int_type(4)


def _table(values: list[int]) -> Table:
    return Table.from_pydict(
        "t", [("k", INT), ("v", INT)],
        {
            "k": np.asarray(values, dtype=np.int64),
            "v": np.arange(len(values), dtype=np.int64),
        },
    )


def _spec(scheme: str, shards: int) -> PartitionSpec:
    return PartitionSpec(
        scheme, shards, key="k" if scheme == "hash" else None
    )


@given(
    values=st.lists(
        st.integers(min_value=-(2**40), max_value=2**40),
        min_size=0, max_size=200,
    ),
    shards=st.integers(min_value=1, max_value=9),
    scheme=st.sampled_from(("round_robin", "block", "hash")),
)
@settings(max_examples=120, deadline=None)
def test_partition_is_a_permutation(values, shards, scheme):
    """No row lost, none duplicated, for arbitrary data and shard counts."""
    table = _table(values)
    indices = partition_indices(table, _spec(scheme, shards))
    assert len(indices) == shards
    merged = np.concatenate([idx for idx in indices]) if indices else []
    assert sorted(merged.tolist()) == list(range(len(values)))
    # each slice preserves base-table relative order
    for idx in indices:
        assert np.all(np.diff(idx) > 0) or len(idx) <= 1


@given(
    values=st.lists(
        st.integers(min_value=-1000, max_value=1000),
        min_size=1, max_size=200,
    ),
    shards=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=80, deadline=None)
def test_hash_partition_key_locality(values, shards):
    """Equal key values always land on the same shard."""
    table = _table(values)
    slices = partition_table(table, _spec("hash", shards))
    home: dict[int, int] = {}
    for shard, piece in enumerate(slices):
        for key in piece.column("k").data.tolist():
            assert home.setdefault(key, shard) == shard


@given(
    values=st.lists(
        st.integers(min_value=-(2**31), max_value=2**31),
        min_size=1, max_size=100,
    ),
    shards=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_hash_buckets_cross_type_co_partition(values, shards):
    """An int key and a decimal key of equal value hash to the same
    shard (integral floats are normalised to the int bit pattern)."""
    as_int = np.asarray(values, dtype=np.int64)
    as_float = as_int.astype(np.float64)
    assert np.array_equal(
        hash_buckets(as_int, shards), hash_buckets(as_float, shards)
    )


@given(
    values=st.lists(
        st.integers(min_value=0, max_value=50), min_size=0, max_size=120,
    ),
    shards=st.integers(min_value=1, max_value=6),
    scheme=st.sampled_from(("round_robin", "block", "hash")),
)
@settings(max_examples=60, deadline=None)
def test_partition_table_round_trip(values, shards, scheme):
    """The multiset of (k, v) rows survives partitioning exactly."""
    table = _table(values)
    slices = partition_table(table, _spec(scheme, shards))
    gathered = sorted(
        (int(k), int(v))
        for piece in slices
        for k, v in zip(piece.column("k").data, piece.column("v").data)
    )
    expected = sorted(
        (int(k), i) for i, k in enumerate(values)
    )
    assert gathered == expected


def test_round_robin_balance():
    indices = partition_indices(
        _table(list(range(10))), _spec("round_robin", 4)
    )
    assert [len(idx) for idx in indices] == [3, 3, 2, 2]


def test_spec_validation():
    with pytest.raises(ReproError):
        PartitionSpec("zigzag", 2)
    with pytest.raises(ReproError):
        PartitionSpec("hash", 2)  # needs a key
    with pytest.raises(ReproError):
        PartitionSpec("round_robin", 2, key="k")  # key is hash-only
    with pytest.raises(ReproError):
        PartitionSpec("block", 0)
