"""Table partitioning for multi-device (sharded) execution.

A :class:`PartitionSpec` records *how* a table is split across the
members of a device group; :func:`partition_indices` computes the row
sets and :func:`partition_table` materialises the per-shard slices
(ordinary :class:`~repro.storage.table.Table` objects sharing the base
columns' dictionaries, so dictionary codes stay comparable across
shards and with the full table).

Schemes:

``round_robin``
    Row ``i`` lands on shard ``i % n`` — balanced, key-oblivious, the
    default home placement for every base table.
``block``
    Contiguous row ranges, one per shard (balanced to within one row).
``hash``
    Row lands on ``hash(key_value) % n``.  Equal key values always
    land on the same shard, which is the property a shuffled
    (repartitioned) correlated drive loop relies on: every inner row
    that can match an outer binding lives on the outer row's shard.

The hash is a 64-bit multiplicative mix over the value's *numeric
identity*: ints, dates and dictionary codes hash their int64 value;
decimals hash the float64 bit pattern.  Integral floats are normalised
to the integer bit pattern first so a decimal key co-partitions with
an int key of equal value (cross-type correlations are rare but legal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from .table import Table

#: Fibonacci hashing constant (2^64 / phi), the usual multiplicative mix.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

SCHEMES = ("round_robin", "block", "hash")


@dataclass(frozen=True)
class PartitionSpec:
    """How one table is distributed across ``shards`` devices.

    ``key`` is the partitioning column for ``hash``; None otherwise.
    """

    scheme: str
    shards: int
    key: str | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ReproError(
                f"unknown partition scheme {self.scheme!r}; "
                f"choose from {SCHEMES}"
            )
        if self.shards < 1:
            raise ReproError("partitioning needs at least one shard")
        if self.scheme == "hash" and not self.key:
            raise ReproError("hash partitioning requires a key column")
        if self.scheme != "hash" and self.key:
            raise ReproError(
                f"{self.scheme} partitioning does not take a key column"
            )


def hash_buckets(values: np.ndarray, shards: int) -> np.ndarray:
    """Shard index per value: ``mix64(value) % shards``.

    Works on any numeric array the engine stores (int64 keys, dates,
    int32 dictionary codes, float64 decimals).
    """
    if values.dtype.kind == "f":
        # normalise integral floats to the int bit pattern so equal
        # values hash equally across int and decimal columns
        as_int = values.astype(np.int64)
        integral = values == as_int
        bits = values.view(np.uint64).copy()
        bits[integral] = as_int[integral].astype(np.uint64)
    else:
        bits = values.astype(np.int64).view(np.uint64)
    mixed = bits * _HASH_MULTIPLIER  # uint64 wrap-around is the mix
    mixed ^= mixed >> np.uint64(32)
    return (mixed % np.uint64(shards)).astype(np.int64)


def partition_indices(table: Table, spec: PartitionSpec) -> list[np.ndarray]:
    """Row positions per shard, in shard order.

    Every returned index array is sorted ascending, so each slice
    preserves the base table's relative row order (gather of block or
    round-robin slices is a deterministic interleaving).
    """
    n = table.num_rows
    if spec.scheme == "round_robin":
        return [np.arange(k, n, spec.shards) for k in range(spec.shards)]
    if spec.scheme == "block":
        bounds = np.linspace(0, n, spec.shards + 1).astype(np.int64)
        return [
            np.arange(bounds[k], bounds[k + 1]) for k in range(spec.shards)
        ]
    buckets = hash_buckets(table.column(spec.key).data, spec.shards)
    return [
        np.flatnonzero(buckets == k) for k in range(spec.shards)
    ]


def partition_table(table: Table, spec: PartitionSpec) -> list[Table]:
    """Materialise the per-shard slices of ``table`` under ``spec``."""
    return [table.take(idx) for idx in partition_indices(table, spec)]
