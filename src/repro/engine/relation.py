"""Device-resident intermediate relations."""

from __future__ import annotations

import weakref
from types import MappingProxyType

import numpy as np

from ..errors import ExecutionError
from ..storage import Column, Table
from ..storage.datatypes import DataType, decimal_type


class Relation:
    """An ordered set of named columns flowing between operators.

    Column names are qualified (``binding.column``) inside a query
    block and become bare output names after the final projection.

    A relation is an ordered list of *parts*, each ``(rows, columns)``:
    the part's columns gathered at row ids ``rows`` (``None``: every
    row, in order).  Selections and joins compose row ids — one take
    per part, not one per column — and :meth:`column` gathers a column
    on first read.  These host gathers are uncharged: operators charge
    the modelled materialisation by the logical width (``nbytes``).
    """

    #: weakly, the table this is every row of, in order (:meth:`from_table`)
    whole_of = None

    def __init__(self, columns: dict[str, Column], num_rows: int | None = None):
        if num_rows is None:
            if not columns:
                raise ExecutionError("relation needs at least one column")
            num_rows = len(next(iter(columns.values())))
        self.num_rows = num_rows
        self._parts = [(None, dict(columns))]
        self._gathered: dict[str, Column] = {}
        self.row_bytes = sum(c.dtype.width for c in columns.values())

    def _derived(self, parts, num_rows: int, row_bytes: int, gathered=None):
        out = object.__new__(Relation)
        out.num_rows, out._parts, out.row_bytes = num_rows, parts, row_bytes
        out._gathered = {} if gathered is None else gathered
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_table(
        cls, table: Table, binding: str, columns: list[str] | None = None
    ) -> "Relation":
        names = columns if columns is not None else table.column_names
        cols = {f"{binding}.{name}": table.column(name) for name in names}
        rel = cls(cols, table.num_rows)
        rel.whole_of = weakref.ref(table)
        return rel

    # -- access -----------------------------------------------------------

    def _names(self) -> list[str]:
        return [name for _, cols in self._parts for name in cols]

    def column(self, name: str) -> Column:
        col = self._gathered.get(name)
        if col is not None:
            return col
        for rows, cols in self._parts:
            col = cols.get(name)
            if col is not None:
                if rows is not None:
                    col = self._gathered[name] = col.take(rows)
                return col
        raise ExecutionError(f"relation has no column {name!r}; has {self._names()}")

    def first_column(self) -> Column:
        return self.column(next(n for _, cols in self._parts for n in cols))

    @property
    def columns(self) -> MappingProxyType:
        """Every column, gathered: a read-only ordered ``{name: Column}``."""
        return MappingProxyType({name: self.column(name) for name in self._names()})

    def __contains__(self, name: str) -> bool:
        return any(name in cols for _, cols in self._parts)

    @property
    def nbytes(self) -> int:
        return self.row_bytes * self.num_rows

    # -- transformations -----------------------------------------------------

    def take_no_charge(self, indices: np.ndarray) -> "Relation":
        parts = [(indices if rows is None else rows[indices], cols)
                 for rows, cols in self._parts]
        return self._derived(parts, len(indices), self.row_bytes)

    def merged(self, other: "Relation") -> "Relation":
        names = set(self._names())
        for name in other._names():
            if name in names:
                raise ExecutionError(f"duplicate column {name!r} in join output")
        return self._derived(
            self._parts + other._parts, self.num_rows,
            self.row_bytes + other.row_bytes,
            {**self._gathered, **other._gathered},
        )

    def with_columns(self, columns: dict[str, Column]) -> "Relation":
        """This relation plus ``columns`` (one value per row) on the right."""
        return self.merged(Relation(columns, self.num_rows))

    def renamed_prefix(self, binding: str) -> "Relation":
        """Expose output columns under a new binding (derived tables)."""
        parts = [
            (rows, {f"{binding}.{name}": col for name, col in cols.items()})
            for rows, cols in self._parts
        ]
        gathered = {f"{binding}.{n}": c for n, c in self._gathered.items()}
        return self._derived(parts, self.num_rows, self.row_bytes, gathered)

    def decode_rows(self) -> list[tuple]:
        decoded = [col.to_python() for col in self.columns.values()]
        if not decoded:
            return [()] * self.num_rows
        return list(zip(*decoded))


def computed_column(name: str, data: np.ndarray, dtype: DataType | None = None) -> Column:
    """Wrap a computed numpy array as a decimal/int column."""
    if dtype is None:
        dtype = decimal_type()
    return Column(name, dtype, data)
