"""Columns: typed numpy vectors with dictionary-encoded strings.

A :class:`Column` is the unit of storage and of host<->device transfer.
String columns hold ``int32`` codes into a *sorted* dictionary so that
``<``, ``>`` and ``=`` on codes agree with lexicographic order on the
decoded strings; the relational kernels therefore operate on numeric
arrays only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ReproError
from .datatypes import DataType, date_to_int, int_to_date


class Dictionary:
    """A sorted, immutable string dictionary shared by string columns."""

    def __init__(self, values: Sequence[str]):
        ordered = sorted(set(values))
        self._values = ordered
        self._index = {v: i for i, v in enumerate(ordered)}
        # numpy array view used by vectorised LIKE evaluation
        self._array = np.array(ordered, dtype=object)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, code: int) -> str:
        return self._values[code]

    def __iter__(self):
        return iter(self._values)

    def code_of(self, value: str) -> int | None:
        """Return the code for ``value`` or None if absent."""
        return self._index.get(value)

    def encode(self, values: Iterable[str]) -> np.ndarray:
        """Encode an iterable of strings into int32 codes.

        Raises:
            ReproError: if a value is not present in the dictionary.
        """
        try:
            return np.fromiter(
                (self._index[v] for v in values), dtype=np.int32
            )
        except KeyError as exc:  # pragma: no cover - defensive
            raise ReproError(f"value {exc} not in dictionary") from exc

    def decode(self, codes: np.ndarray) -> list[str]:
        """Decode an array of codes back into Python strings."""
        return [self._values[int(c)] for c in codes]

    def matching_codes(self, predicate) -> np.ndarray:
        """Codes of all dictionary entries for which ``predicate(str)`` holds.

        LIKE and other string predicates are evaluated once against the
        (small) dictionary; the result feeds an ``isin`` kernel on the
        codes, which is how a dictionary-encoded column store evaluates
        string predicates without touching row data.
        """
        hits = [i for i, v in enumerate(self._values) if predicate(v)]
        return np.asarray(hits, dtype=np.int32)


class Column:
    """A typed column: a numpy array plus a :class:`DataType`.

    For string columns ``data`` holds int32 dictionary codes and
    ``dictionary`` is the shared :class:`Dictionary`.
    """

    __slots__ = ("name", "dtype", "data", "dictionary")

    def __init__(
        self,
        name: str,
        dtype: DataType,
        data: np.ndarray,
        dictionary: Dictionary | None = None,
    ):
        if dtype.is_string and dictionary is None:
            raise ReproError(f"string column {name!r} requires a dictionary")
        self.name = name
        self.dtype = dtype
        self.data = np.ascontiguousarray(data, dtype=dtype.np_dtype)
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name!r}, {self.dtype.name}, n={len(self)})"

    @property
    def nbytes(self) -> int:
        """Logical size in bytes (declared width x row count)."""
        return self.dtype.width * len(self.data)

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position, preserving type and dictionary."""
        return Column(self.name, self.dtype, self.data[indices], self.dictionary)

    def renamed(self, name: str) -> "Column":
        """The same column under a different name (projection aliasing)."""
        return Column(name, self.dtype, self.data, self.dictionary)

    def encode_literal(self, value) -> float | int:
        """Translate a query literal to the column's physical domain.

        Strings become dictionary codes (or a sentinel that can never
        match when absent — -1 sorts below every valid code, which is
        also correct for ordered comparisons since dictionaries are
        sorted). Dates become days-since-epoch.
        """
        if self.dtype.is_string:
            assert self.dictionary is not None
            code = self.dictionary.code_of(value)
            if code is not None:
                return code
            # absent string: place it in sort order among codes
            lo, hi = 0, len(self.dictionary)
            while lo < hi:
                mid = (lo + hi) // 2
                if self.dictionary[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            return lo - 0.5  # falls strictly between neighbouring codes
        if self.dtype.name == "date" and isinstance(value, str):
            return date_to_int(value)
        return value

    def to_python(self) -> list:
        """Decode the column into a list of Python values (for results)."""
        if self.dtype.is_string:
            assert self.dictionary is not None
            return self.dictionary.decode(self.data)
        if self.dtype.name == "date":
            return [int_to_date(v) for v in self.data]
        if self.dtype.name == "decimal":
            return [float(v) for v in self.data]
        return [int(v) for v in self.data]


def column_from_values(name: str, dtype: DataType, values: Sequence) -> Column:
    """Build a column from Python values, encoding strings and dates.

    This is the ingestion path used by the TPC-H generator and by
    tests: strings get a fresh sorted dictionary, dates are converted
    to days-since-epoch (an array already holds days), and numerics
    pass through.  A string column may also arrive as ``(pool, index)``
    — candidate strings plus a pool position per row — and is coded
    without a string per row; the dictionary holds only values present.
    """
    if dtype.is_string:
        if isinstance(values, tuple) and isinstance(values[-1], np.ndarray):
            pool, index = values
            present = np.flatnonzero(np.bincount(index, minlength=len(pool)))
            used = [pool[i] for i in present]
            dictionary = Dictionary(used)
            remap = np.zeros(len(pool), dtype=np.int32)
            remap[present] = dictionary.encode(used)
            return Column(name, dtype, remap[index], dictionary)
        dictionary = Dictionary(values)
        codes = dictionary.encode(values)
        return Column(name, dtype, codes, dictionary)
    if dtype.name == "date" and not isinstance(values, np.ndarray):
        data = np.asarray([date_to_int(v) for v in values], dtype=np.int64)
        return Column(name, dtype, data)
    return Column(name, dtype, np.asarray(values, dtype=dtype.np_dtype))
