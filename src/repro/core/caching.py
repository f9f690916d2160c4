"""Subquery result caching (paper Section III-D, "Caching").

When the correlated column is not a key, the same parameter tuple
re-evaluates the subquery redundantly.  The cache keys results by the
parameter tuple; with a skewed outer column most iterations become
dictionary hits, which the cost model accounts for through the ``Ch``
term of Eq. (6).
"""

from __future__ import annotations

import numpy as np


class SubqueryCache:
    """Maps parameter tuples to subquery results (scalar or boolean).

    One cache per SUBQ (each :class:`~repro.core.runtime.SubqueryProgram`
    owns its own), so two SUBQs correlated on the same outer column
    never read each other's entries.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._entries: dict[tuple, tuple[float, bool]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        """Cached ``(value, valid)`` or None.

        A disabled cache still counts misses — the counter doubles as
        the number of actual subquery evaluations.
        """
        if not self.enabled:
            self.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple, value: float, valid: bool) -> None:
        if self.enabled:
            self._entries[key] = (value, valid)

    # -- batch interface for the vectorized path -------------------------

    def probe_batch(
        self, keys: list[tuple]
    ) -> tuple[list[int], list[tuple[float, bool]], list[int]]:
        """Split a batch into cache hits and misses.

        Returns ``(hit_rows, hit_values, miss_rows)`` where rows index
        into ``keys``.  With caching disabled everything is a miss.
        """
        hit_rows: list[int] = []
        hit_values: list[tuple[float, bool]] = []
        miss_rows: list[int] = []
        if not self.enabled:
            return [], [], list(range(len(keys)))
        for row, key in enumerate(keys):
            entry = self._entries.get(key)
            if entry is None:
                miss_rows.append(row)
                self.misses += 1
            else:
                hit_rows.append(row)
                hit_values.append(entry)
                self.hits += 1
        return hit_rows, hit_values, miss_rows

    def put_batch(
        self, keys: list[tuple], values: np.ndarray, valid: np.ndarray
    ) -> None:
        if not self.enabled:
            return
        for key, value, ok in zip(keys, values, valid):
            self._entries[key] = (float(value), bool(ok))
