"""Sorted indexes over correlated columns (paper Section III-D).

The nested method re-scans the inner table once per outer tuple.  When
the correlation operator is ``=``, building a sorted index over the
inner correlated column turns each full scan into a binary search plus
a slice gather.  Building costs an ``O(N log N)`` device sort and
``O(2N)`` extra space (values + original positions), so the executor
weighs the build cost against the expected number of iterations before
committing (:func:`index_pays_off`).  The index *is* the engine's one
key-lookup structure (:class:`~repro.gpu.kernels.JoinHash`) charged as
a sort on the modelled clock; the host orders the column with one
:func:`~repro.gpu.kernels.stable_order` and answers dense integer
columns by direct addressing.
"""

from __future__ import annotations

import math

import numpy as np

from ..gpu import kernels
from ..gpu.device import Device


class CorrelatedIndex(kernels.JoinHash):
    """Sorted column values (``keys_sorted``) + original rows (``order``)."""

    @classmethod
    def build(cls, device: Device, values: np.ndarray, presorted=None):
        """Sort the column on the device (charged as a sort kernel); the
        host reuses ``presorted``, ``(keys_sorted, order)``, if given."""
        if presorted is not None:
            kernels.charge_sort(device, len(values))
            return cls(*presorted)
        order = kernels.sort_order(device, [values], [False])
        return cls(values[order], order)

    def lookup(self, device: Device, value) -> np.ndarray:
        """Row positions whose key equals ``value`` (one binary search)."""
        lo, count = kernels.binary_search_ranges(device, self, np.asarray([value]))
        return self.order[int(lo[0]) : int(lo[0] + count[0])]

    def lookup_batch(
        self, device: Device, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions and segment ids for a whole batch of probe values.

        Returns ``(rows, segments)`` where ``rows`` are original row
        positions and ``segments[i]`` tells which probe value row ``i``
        matched — the representation the vectorized subquery path
        consumes directly.
        """
        lo, counts = kernels.binary_search_ranges(device, self, values)
        segments, positions, total = kernels.expand_ranges(lo, counts)
        device.launch("index_gather", total)
        return self.order[positions], segments


def index_pays_off(
    table_rows: int, iterations: int, min_iterations: int
) -> bool:
    """Decide whether building the index beats repeated full scans.

    Cost comparison in units of element-touches: repeated scans cost
    ``iterations * N``; the indexed plan costs ``N log N`` (sort) plus
    ``iterations * log N`` (searches) plus the matched rows (paid in
    both plans).
    """
    if iterations < min_iterations or table_rows < 2:
        return False
    log_n = math.log2(table_rows)
    scan_cost = iterations * table_rows
    index_cost = table_rows * log_n + iterations * log_n
    return index_cost < scan_cost
