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
from typing import NamedTuple

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
    """Membership mask — how dictionary-encoded LIKE is evaluated.

    Integer values within :class:`JoinHash`'s density rule are one
    gather through a presence table over their ``[min, max]``, whose end
    slots read False for data outside it; float or NaN data, a sparse
    span or uint64 data against a negative value take ``np.isin``.
    """
    device.launch("scan_isin", len(data), work=2.0)
    if len(values) and data.dtype.kind in "iu" and values.dtype.kind in "iu":
        low, high = int(values.min()), int(values.max())
        room = _DENSE_SLOTS_PER_KEY * (len(data) + len(values)) + _DENSE_FREE_SLOTS
        if (
            high - low < room
            and -(1 << 62) < low <= high < 1 << 62
            and (low >= 0 or data.dtype != np.uint64)
        ):
            present = np.zeros(high - low + 3, dtype=bool)
            present[values.astype(np.int64) - (low - 1)] = True
            # uint64 data past the int64 range wraps negative and clips
            # to low - 1 (>= -1 here): the False slot
            slot = np.clip(data, low - 1, high + 1, dtype=np.int64)
            slot -= low - 1
            return present.take(slot)
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
    charge_compact(device, len(mask))
    return np.flatnonzero(mask)


def charge_compact(device: Device, n: int) -> None:
    """The launches of :func:`compact` over ``n`` flags."""
    device.launch("prefix_sum", n, work=_log_work(n))
    device.launch("scatter", n)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

_REDUCE_IDENTITY = {"min": np.inf, "max": -np.inf, "sum": 0.0, "count": 0.0, "avg": np.nan}


def reduce_full(device: Device, values: np.ndarray, op: str) -> float:
    """A whole-column reduction; empty input yields the identity.

    ``avg`` over an empty column yields NaN, matching SQL NULL.
    """
    charge_reduce(device, len(values))
    return reduce_value(values, op)


def charge_reduce(device: Device, n: int) -> None:
    """The launch of :func:`reduce_full` over ``n`` values."""
    device.launch("reduce", n, work=_log_work(max(n, 1)))


def reduce_value(values: np.ndarray, op: str) -> float:
    """The host half of :func:`reduce_full`: the reduction, uncharged."""
    n = len(values)
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
# hash join primitives: the one key -> build rows lookup behind join,
# semi-join, left lookup, the correlated index and the vectorized scan;
# which path answers inside `JoinHash` is host work only
# ---------------------------------------------------------------------------

# Density rule.  The direct-address table costs ~5 sequential passes over
# `span` slots (~1 ns each) and saves two binary searches (~25 ns each,
# even over 20 keys) per probe, so it pays up to span ~ 10 x probes; at
# up to three int64 and a bool per slot, span <= 4 x (build + probe) also
# keeps it within a small multiple of the arrays in hand (+1024: small
# builds with gaps).  Both sides are read off the arrays, so there is
# nothing to tune.
_DENSE_SLOTS_PER_KEY = 4
_DENSE_FREE_SLOTS = 1024

# Probe-sort rule.  Integer probes that are a whole base column with a
# kept sort (``Table.sorted_column``) may be answered from the build side:
# the m build keys are searched in the n sorted probes (two searches of
# log2 n steps, ~25 ns a step once m is in the thousands: cache misses),
# then the h hits are put in probe order by one sort of packed pairs (~3
# ns per h log2 h); the direct path makes four ~1 ns passes over the n
# probes.  h is estimated as m n / distinct probes, then counted.
_SEARCH_NS_PER_STEP = 25.0
_ORDER_NS_PER_STEP = 3.0
_DIRECT_NS_PER_PROBE = 4.0


def _probe_sort_pays(builds: int, probes: int, hits: float) -> bool:
    search = builds * _log_work(probes) * _SEARCH_NS_PER_STEP
    reorder = hits * _log_work(hits) * _ORDER_NS_PER_STEP
    return search + reorder < probes * _DIRECT_NS_PER_PROBE


class _Direct(NamedTuple):
    """A direct-address table: key ``k`` sits in slot ``k - base``;
    slots 0 and ``top`` are the below- and above-range sentinels."""

    base: np.int64  # not a Python int: clip() then skips np.iinfo checks
    top: int
    count: np.ndarray  # slot -> how many build rows hold the key
    present: np.ndarray  # count > 0: a semi-join's whole answer
    row: np.ndarray | None  # slot -> build row; None when a key repeats


class JoinHash:
    """A build side's key lookup: each probe key's build rows, in build
    order.

    :func:`hash_build` charges the device (``Ht`` per element, Eq. 2);
    ``nbytes`` is the modelled footprint, sorted keys plus the stable
    permutation, whatever the host does.  On the host, integer keys
    within the density rule are direct-addressed through a table counted
    off the *unsorted* keys at the first probe.  When no key repeats it
    also maps each slot to its build row, so a probe is a few gathers, a
    semi-join one, and nothing is sorted.  ``keys_sorted``/``order`` are
    computed when first read: to expand a repeated key's run, or for
    probes that take the two binary searches (float, NaN, uint64, a
    sparse span).  ``JoinHash(keys_sorted, order)`` is a table handed
    its sort, as the correlated index is; it gets no row map.  The
    direct table and the sort are host memory, never modelled HBM.
    ``probe_sort`` is the probes' own kept sort ``(keys ascending, stable
    order, distinct keys)``: the probe-sort rule may search it instead.
    """

    def __init__(self, keys_sorted: np.ndarray, order: np.ndarray | None):
        self._keys = keys_sorted
        # each published whole: readers see None or all of it
        self._sorted: tuple | None = (keys_sorted, order)
        self._dense: _Direct | None = None
        self._first = None  # slot -> start of its run in keys_sorted

    @classmethod
    def build(cls, keys: np.ndarray) -> "JoinHash":
        """Keep ``keys`` in build order; uncharged (see :func:`hash_build`)."""
        table = cls(keys, None)
        table._sorted = None
        return table

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + len(self._keys) * np.dtype(np.intp).itemsize

    @property
    def keys_sorted(self) -> np.ndarray:
        return (self._sorted or self._sort())[0]

    @property
    def order(self) -> np.ndarray:
        return (self._sorted or self._sort())[1]

    def _sort(self) -> tuple:
        order = stable_order([self._keys])
        self._sorted = (self._keys[order], order)
        return self._sorted

    def ranges(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each probe key's run in ``keys_sorted`` -> ``(lo, counts)``,
        ``lo`` being the left insertion point even for a miss; read off
        the counts, without sorting, when direct-addressed."""
        if not len(self._keys):
            return np.zeros(len(probe_keys), np.intp), np.zeros(len(probe_keys), np.intp)
        return self._runs(probe_keys, *self._direct(probe_keys))

    def matches(self, probe_keys: np.ndarray, probe_sort=None) -> tuple[np.ndarray, np.ndarray]:
        """Every match -> ``(probe_indices, build_rows)``, in probe order
        and, within a probe, in build order."""
        return self._match(probe_keys, True, probe_sort)

    def first_matches(self, probe_keys: np.ndarray, probe_sort=None) -> tuple[np.ndarray, np.ndarray]:
        """Each matched probe and its first build row, as :meth:`matches`."""
        return self._match(probe_keys, False, probe_sort)

    def contains(self, probe_keys: np.ndarray, probe_sort=None) -> np.ndarray:
        """Presence mask over the probes: a semi-join's answer."""
        if not len(self._keys):
            return np.zeros(len(probe_keys), dtype=bool)
        pairs = self._by_probe_sort(len(probe_keys), probe_sort)
        if pairs is not None:
            return np.bincount(pairs[0], minlength=len(probe_keys)).astype(bool)
        dense, slot = self._direct(probe_keys)
        if dense is None:
            return self._search(probe_keys)[1] > 0
        return dense.present.take(slot)

    def _match(self, probe_keys: np.ndarray, every: bool, probe_sort) -> tuple[np.ndarray, np.ndarray]:
        if not len(self._keys):
            return np.empty(0, np.intp), np.empty(0, np.intp)
        pairs = self._by_probe_sort(len(probe_keys), probe_sort)
        if pairs is not None and not every:
            hit, first = np.unique(pairs[0], return_index=True)
            return hit, pairs[1][first]
        if pairs is not None:
            return pairs
        dense, slot = self._direct(probe_keys)
        if dense is not None and dense.row is not None:
            hit = np.flatnonzero(dense.present.take(slot))
            return hit, dense.row.take(slot.take(hit))
        lo, counts = self._runs(probe_keys, dense, slot)
        if every:
            segments, positions, _ = expand_ranges(lo, counts)
            return segments, self.order[positions]
        hit = np.flatnonzero(counts)
        return hit, self.order[lo[hit]]

    def _direct(self, probe_keys: np.ndarray) -> tuple:
        """``(table, slots)`` when these probes are direct-addressed,
        else ``(None, None)``: the sorted search answers."""
        common = np.result_type(self._keys, probe_keys)  # uint64: no
        dense = np.can_cast(common, np.int64) and (
            self._dense or self._build_dense(len(probe_keys))
        )
        if not dense:
            return None, None
        slot = probe_keys.astype(np.int64, copy=False).clip(
            dense.base, dense.base + dense.top
        )
        slot -= dense.base
        return dense, slot

    def _by_probe_sort(self, probes: int, probe_sort) -> tuple | None:
        """Every ``(probe, build row)`` pair in :meth:`matches`' order, or
        None where the probe-sort rule or the keys' dtypes decline it."""
        if probe_sort is None:
            return None
        sorted_probes, order, distinct = probe_sort
        keys, builds = self._keys, len(self._keys)
        if not (  # a table handed its sort holds no build rows' order
            (self._sorted is None or self._sorted[0] is not keys)
            and np.can_cast(np.result_type(keys, sorted_probes), np.int64)
            and probes << builds.bit_length() < 1 << 62
            and _probe_sort_pays(builds, probes, builds * probes / distinct)
        ):
            return None
        lo = np.searchsorted(sorted_probes, keys, side="left")
        counts = np.searchsorted(sorted_probes, keys, side="right") - lo
        rows, positions, hits = expand_ranges(lo, counts)
        if not _probe_sort_pays(builds, probes, hits):
            return None
        # packed (probe, build row) pairs are distinct: one plain sort
        shift = builds.bit_length()
        packed = order[positions] << shift
        packed |= rows
        packed.sort()
        return packed >> shift, packed & ((1 << shift) - 1)

    def _runs(self, probe_keys, dense, slot) -> tuple[np.ndarray, np.ndarray]:
        if dense is None:
            return self._search(probe_keys)
        if self._first is None:  # only a run's position needs the scan
            self._first = np.cumsum(dense.count) - dense.count
        return self._first.take(slot), dense.count.take(slot)

    def _search(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two binary searches, whose NaN and mixed-dtype ordering is the
        engine's NULL semantics."""
        keys = self.keys_sorted
        lo = np.searchsorted(keys, probe_keys, side="left")
        return lo, np.searchsorted(keys, probe_keys, side="right") - lo

    def _build_dense(self, probes: int) -> _Direct | None:
        keys = self._keys
        if self._sorted:  # a sorted table's ends are free
            low, high = int(self._sorted[0][0]), int(self._sorted[0][-1])
        else:
            low, high = int(keys.min()), int(keys.max())
        span = high - low + 1
        room = _DENSE_SLOTS_PER_KEY * (len(keys) + probes) + _DENSE_FREE_SLOTS
        # 2^62: `key - base` and the clip bounds cannot overflow int64
        if span > room or not -(1 << 62) < low <= high < 1 << 62:
            return None
        base = np.int64(low - 1)
        slots = keys.astype(np.int64, copy=False) - base
        count = np.bincount(slots, minlength=span + 2)
        present = count.astype(bool)
        row = None
        # keys never sorted are in build order, so slot -> row is arange
        if self._sorted is None and np.count_nonzero(present) == len(keys):
            row = np.zeros(span + 2, dtype=np.intp)
            row[slots] = np.arange(len(keys))
        self._dense = _Direct(base, span + 1, count, present, row)
        return self._dense


def expand_ranges(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Enumerate every ``[lo, lo+count)`` -> (segments, positions, total):
    the probe each match belongs to (probe order) and its slot in the
    sorted build (stable build order within a probe).  A compaction
    when no probe matched twice, as for a unique-key index.
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
    device: Device, table: JoinHash, probe_keys: np.ndarray, probe_sort=None
) -> tuple[np.ndarray, np.ndarray]:
    """Probe -> aligned (probe_indices, build_indices) of every match."""
    probe_idx, build_idx = table.matches(probe_keys, probe_sort)
    charge_probe(device, len(probe_keys), len(probe_idx))
    return probe_idx, build_idx


def charge_probe(device: Device, probes: int, matches: int) -> None:
    """The launches of :func:`hash_probe`: ``probes`` keys, ``matches``
    output pairs."""
    device.launch("hash_probe", probes, work=2.0)
    device.launch("join_expand", matches)


def semi_probe(device: Device, table: JoinHash, probe_keys, probe_sort=None) -> np.ndarray:
    """EXISTS probe -> mask over probe side (the paper's Q4 semi-join)."""
    device.launch("semi_probe", len(probe_keys), work=2.0)
    return table.contains(probe_keys, probe_sort)


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
    charge_sort(device, len(keys[0]))
    return stable_order([(-k if desc else k) for k, desc in zip(keys, descending)])


def charge_sort(device: Device, n: int) -> None:
    """The launch of :func:`sort_order` over ``n`` rows."""
    device.launch("sort", n, work=_log_work(max(n, 1)) * 2.0)


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
    charge_index_search(device, len(probe_values), len(index))
    return index.ranges(probe_values)


def charge_index_search(device: Device, probes: int, indexed: int) -> None:
    """The launch of :func:`binary_search_ranges`: ``probes`` searches
    in an index over ``indexed`` values."""
    device.launch("index_search", probes, work=_log_work(max(indexed, 1)))
