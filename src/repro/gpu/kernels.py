"""Primitive GPU kernels.

Relational operators are dismantled into the primitives below, mirroring
the structure the paper describes (scan, prefix-sum, scatter,
materialise, hash build/probe, segmented reduce, sort).  Each primitive
performs the real computation with numpy and charges the device clock
for one kernel launch over its input size; ``work`` factors account for
kernels that do more memory traffic per element (hash build, sort).

All primitives are pure with respect to their inputs — they allocate
and return fresh arrays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..errors import ExecutionError
from .device import Device

_COMPARE_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _log_work(n: int) -> float:
    return max(1.0, math.log2(n)) if n > 1 else 1.0


# ---------------------------------------------------------------------------
# kernel fusion
# ---------------------------------------------------------------------------


@contextmanager
def fused(device: Device, tag: str):
    """Fuse every kernel launched in the block into ONE modelled launch.

    The numpy computation of each primitive runs unchanged (results
    stay bit-identical); only the charging changes — the block pays a
    single launch overhead plus the combined iteration work, and the
    device records it under ``tag`` with ``fused_launches`` /
    ``fused_kernels`` accounting.  Nested ``fused`` blocks flatten into
    the outermost scope.
    """
    scope = device.begin_fused(tag)
    try:
        yield
    finally:
        device.end_fused(scope)


#: The scope an operator body runs under when it is not fused: it
#: changes nothing, so one body serves both pipelines.
UNFUSED = nullcontext()


# ---------------------------------------------------------------------------
# scans and maps
# ---------------------------------------------------------------------------


def compare_scalar(device: Device, data: np.ndarray, op: str, value) -> np.ndarray:
    """Elementwise ``data <op> value`` producing a 0/1 mask."""
    try:
        func = _COMPARE_OPS[op]
    except KeyError:
        raise ExecutionError(f"unknown comparison operator {op!r}") from None
    device.launch("scan_compare", len(data))
    return func(data, value)


def compare_arrays(device: Device, left: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    """Elementwise ``left <op> right`` over two aligned columns."""
    try:
        func = _COMPARE_OPS[op]
    except KeyError:
        raise ExecutionError(f"unknown comparison operator {op!r}") from None
    device.launch("scan_compare", len(left), work=2.0)
    return func(left, right)


def isin(device: Device, data: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask — how dictionary-encoded LIKE is evaluated."""
    device.launch("scan_isin", len(data), work=2.0)
    return np.isin(data, values)


def arithmetic(device: Device, op: str, left, right, size: int) -> np.ndarray:
    """Elementwise arithmetic between columns and/or scalars."""
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
    try:
        func = ops[op]
    except KeyError:
        raise ExecutionError(f"unknown arithmetic operator {op!r}") from None
    device.launch("scan_arith", size)
    if op == "/":
        lhs = np.asarray(left, dtype=np.float64)
        rhs = np.asarray(right, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(lhs, rhs)
        return np.where(rhs == 0.0, np.nan, out)  # SQL NULL on x/0
    return func(left, right)


def logical_and(device: Device, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    device.launch("scan_and", len(left))
    return np.logical_and(left, right)


def logical_or(device: Device, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    device.launch("scan_or", len(left))
    return np.logical_or(left, right)


def logical_not(device: Device, mask: np.ndarray) -> np.ndarray:
    device.launch("scan_not", len(mask))
    return np.logical_not(mask)


# ---------------------------------------------------------------------------
# compaction (prefix sum + scatter)
# ---------------------------------------------------------------------------


def compact(device: Device, mask: np.ndarray) -> np.ndarray:
    """Indices of set positions (prefix-sum + scatter of a 0/1 vector)."""
    n = len(mask)
    device.launch("prefix_sum", n, work=_log_work(n))
    device.launch("scatter", n)
    return np.flatnonzero(mask)


def gather(device: Device, data: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather ``data[indices]``."""
    device.launch("gather", len(indices))
    return data[indices]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

_REDUCE_IDENTITY = {"min": np.inf, "max": -np.inf, "sum": 0.0, "count": 0.0, "avg": np.nan}


def reduce_full(device: Device, values: np.ndarray, op: str) -> float:
    """A whole-column reduction; empty input yields the identity.

    ``avg`` over an empty column yields NaN, matching SQL NULL.
    """
    n = len(values)
    device.launch("reduce", n, work=_log_work(max(n, 1)))
    if op == "count":
        return float(n)
    if n == 0:
        return _REDUCE_IDENTITY[op]
    if op == "min":
        return float(values.min())
    if op == "max":
        return float(values.max())
    if op == "sum":
        return float(values.sum())
    if op == "avg":
        return float(values.mean())
    raise ExecutionError(f"unknown reduction {op!r}")


def segmented_reduce(
    device: Device,
    values: np.ndarray | None,
    segment_ids: np.ndarray,
    num_segments: int,
    op: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment reduction -> (result, counts).

    Segments with no rows receive the reduction identity (NaN for avg)
    and can be recognised through ``counts == 0``.  This primitive is
    what makes the *vectorization* optimization possible: one launch
    reduces the subquery result for a whole batch of outer tuples.
    """
    n = len(segment_ids)
    device.launch("segmented_reduce", n, work=_log_work(max(n, 1)))
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    if op == "count":
        return counts, counts
    assert values is not None
    result = np.full(num_segments, _REDUCE_IDENTITY[op], dtype=np.float64)
    if n:
        if op == "min":
            np.minimum.at(result, segment_ids, values)
        elif op == "max":
            np.maximum.at(result, segment_ids, values)
        elif op in ("sum", "avg"):
            result = np.zeros(num_segments, dtype=np.float64)
            np.add.at(result, segment_ids, values)
            if op == "avg":
                with np.errstate(invalid="ignore", divide="ignore"):
                    result = result / counts
        else:
            raise ExecutionError(f"unknown reduction {op!r}")
    if op == "avg" and n == 0:
        result = np.full(num_segments, np.nan)
    return result, counts


def segmented_any(
    device: Device, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment EXISTS — true where a segment has at least one row."""
    device.launch("segmented_any", len(segment_ids))
    counts = np.bincount(segment_ids, minlength=num_segments)
    return counts > 0


# ---------------------------------------------------------------------------
# hash join primitives: the one key -> [lo, lo+count) -> positions lookup
# behind join, semi-join, left lookup, the correlated index and the
# vectorized scan; which path answers inside `ranges` is host work only
# ---------------------------------------------------------------------------

# Density rule.  The direct-address table costs ~4 sequential passes over
# `span` slots (~1 ns each) and saves two binary searches (~25 ns each,
# even over 20 keys) per probe, so it pays up to span ~ 12 x probes; at
# two int64 per slot, span <= 4 x (build + probe) also keeps it within a
# small multiple of the arrays in hand (+1024: small builds with gaps).
# Both sides are read off the arrays, so there is nothing to tune.
_DENSE_SLOTS_PER_KEY = 4
_DENSE_FREE_SLOTS = 1024


@dataclass
class JoinHash:
    """A build-side 'hash table': sorted keys + the stable permutation,
    so ``order[lo:lo+count]`` are a key's build rows in build order.

    :func:`hash_build` charges the device (``Ht`` per element, Eq. 2);
    ``nbytes`` is the modelled footprint.  Dense integer keys also get
    a lazily built direct-address ``first[]/count[]`` table — host
    memory, never charged to the modelled HBM.
    """

    keys_sorted: np.ndarray
    order: np.ndarray
    # (base, top, first, count), published whole: readers see None or all
    _dense: tuple | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.keys_sorted)

    @property
    def nbytes(self) -> int:
        return self.keys_sorted.nbytes + self.order.nbytes

    @classmethod
    def build(cls, keys: np.ndarray) -> "JoinHash":
        """Sort ``keys`` stably; uncharged (see :func:`hash_build`)."""
        order = stable_order([keys])
        return cls(keys[order], order)

    def ranges(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each probe key's run in ``keys_sorted`` -> ``(lo, counts)``,
        ``lo`` being the left insertion point even for a miss.

        Integer keys within the density rule are direct-addressed.
        Float/NaN keys, float probes of integer builds, uint64 and
        sparse or huge spans take the two binary searches, whose NaN
        and mixed-dtype ordering is the engine's NULL semantics.
        """
        common = np.result_type(self.keys_sorted, probe_keys)  # uint64: no
        dense = np.can_cast(common, np.int64) and (
            self._dense or self._build_dense(len(probe_keys))
        )
        if not dense:
            lo = np.searchsorted(self.keys_sorted, probe_keys, side="left")
            hi = np.searchsorted(self.keys_sorted, probe_keys, side="right")
            return lo, hi - lo
        base, top, first, count = dense
        # slots 0 and `top` are the below- and above-range sentinels
        slot = probe_keys.astype(np.int64, copy=False).clip(base, base + top)
        slot -= base
        return first.take(slot), count.take(slot)

    def _build_dense(self, probes: int) -> tuple | None:
        keys = self.keys_sorted
        if not len(keys):
            return None
        low, high = int(keys[0]), int(keys[-1])
        span = high - low + 1
        room = _DENSE_SLOTS_PER_KEY * (len(keys) + probes) + _DENSE_FREE_SLOTS
        # 2^62: `key - base` and the clip bounds cannot overflow int64
        if span > room or not -(1 << 62) < low <= high < 1 << 62:
            return None
        count = np.bincount(keys.astype(np.int64, copy=False) - (low - 1),
                            minlength=span + 2)
        # an int64 `base` keeps clip() off its per-call np.iinfo bound
        # checks (a Python int bound costs more than a 1-key clamp)
        base = np.int64(low - 1)
        self._dense = (base, span + 1, np.cumsum(count) - count, count)
        return self._dense


def expand_ranges(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Enumerate every ``[lo, lo+count)`` -> (segments, positions, total):
    the probe each match belongs to (probe order) and its slot in the
    sorted build (stable build order within a probe).  A compaction
    when no probe matched twice, as for every unique-key build.
    """
    total = int(counts.sum())
    if np.count_nonzero(counts) == total:
        segments = np.flatnonzero(counts)
        return segments, lo[segments], total
    segments = np.repeat(np.arange(len(counts)), counts)
    run_start = np.cumsum(counts) - counts
    return segments, np.arange(total) + np.repeat(lo - run_start, counts), total


def hash_build(device: Device, keys: np.ndarray) -> JoinHash:
    """Build the join hash table over the build side's key column."""
    device.launch("hash_build", len(keys), work=2.0)
    return JoinHash.build(keys)


def hash_probe(
    device: Device, table: JoinHash, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probe -> aligned (probe_indices, build_indices) of every match."""
    device.launch("hash_probe", len(probe_keys), work=2.0)
    probe_idx, positions, total = expand_ranges(*table.ranges(probe_keys))
    device.launch("join_expand", total)
    return probe_idx, table.order[positions]


def semi_probe(device: Device, table: JoinHash, probe_keys: np.ndarray) -> np.ndarray:
    """EXISTS probe -> mask over probe side (the paper's Q4 semi-join)."""
    device.launch("semi_probe", len(probe_keys), work=2.0)
    return table.ranges(probe_keys)[1] > 0


# ---------------------------------------------------------------------------
# sort and grouping: every host sort (index/join build, GROUP BY, ORDER BY)
# is `stable_order`; which of its rules answers is host work only
# ---------------------------------------------------------------------------

# Below this many rows lexsort runs as it always did: the packed path's
# extra numpy calls (min/max, pack, unpack: ~30 us) cost more than timsort
# on a few thousand rows.  Read off the arrays, so there is nothing to tune.
_PACK_MIN_ROWS = 4096


def stable_order(keys: list[np.ndarray]) -> np.ndarray:
    """Row permutation ordering by ``keys`` (first key primary, ties in
    row order) — by definition ``np.lexsort(keys[::-1])``.

    One already non-decreasing key is the identity.  Integer keys (not
    uint64) whose spans fit one int64 above the row number are packed
    mixed-radix and sorted *by value* once — a stable order is unique.
    Anything else (float/NaN, uint64, mixed lists) stays on lexsort.
    """
    n = len(keys[0])
    if n >= _PACK_MIN_ROWS:
        if len(keys) == 1 and (keys[0][1:] >= keys[0][:-1]).all():
            return np.arange(n)
        shift = n.bit_length()
        if all(k.dtype.kind in "iub" and k.dtype != np.uint64 for k in keys):
            lows = [int(k.min()) for k in keys]
            spans = [int(k.max()) - low + 1 for k, low in zip(keys, lows)]
            if math.prod(spans) << shift <= 1 << 62:  # Python ints: exact
                packed = 0  # one transient int64 per row, host memory
                for key, low, span in zip(keys, lows, spans):
                    packed = packed * span + np.subtract(key, low, dtype=np.int64)
                packed <<= shift
                packed |= np.arange(n)
                packed.sort()
                packed &= (1 << shift) - 1
                return packed
    return np.lexsort(keys[::-1])


def sort_order(
    device: Device, keys: list[np.ndarray], descending: list[bool]
) -> np.ndarray:
    """Row permutation ordering by the given keys (first key primary)."""
    if not keys:
        raise ExecutionError("sort requires at least one key")
    n = len(keys[0])
    device.launch("sort", n, work=_log_work(max(n, 1)) * 2.0)
    return stable_order([(-k if desc else k) for k, desc in zip(keys, descending)])


def group_ids(
    device: Device, keys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids for composite keys -> (ids, representative_rows).

    ``ids[i]`` is the group of row ``i``; ``representative_rows[g]`` is
    one row index belonging to group ``g`` (used to emit the group-key
    columns).
    """
    if not keys:
        raise ExecutionError("grouping requires at least one key")
    n = len(keys[0])
    device.launch("group_by", n, work=_log_work(max(n, 1)) * 2.0)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = stable_order(keys)
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in keys:
        sorted_key = key[order]
        changed[1:] |= sorted_key[1:] != sorted_key[:-1]
    gid_sorted = np.cumsum(changed) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = gid_sorted
    return ids, order[changed]


# ---------------------------------------------------------------------------
# index primitives (paper Section III-D, "Indexing")
# ---------------------------------------------------------------------------


def binary_search_ranges(
    device: Device, index: JoinHash, probe_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-probe ranges ``(lo, counts)`` in a sorted index.

    This is the kernel behind indexed correlated scans: instead of a
    full table scan per iteration, each iteration touches only the
    matching slice.  The launch size is the probe count (log-cost per
    probe), not the table size.
    """
    device.launch(
        "index_search", len(probe_values), work=_log_work(max(len(index), 1))
    )
    return index.ranges(probe_values)
