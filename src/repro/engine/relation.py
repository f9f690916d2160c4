"""Device-resident intermediate relations."""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..storage import Column, Table
from ..storage.datatypes import DataType, decimal_type


class Relation:
    """An ordered set of named columns flowing between operators.

    Column names are qualified (``binding.column``) inside a query
    block and become bare output names after the final projection.
    """

    def __init__(self, columns: dict[str, Column], num_rows: int | None = None):
        self.columns = dict(columns)
        if num_rows is None:
            if not columns:
                raise ExecutionError("relation needs at least one column")
            num_rows = len(next(iter(columns.values())))
        self.num_rows = num_rows

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_table(
        cls, table: Table, binding: str, columns: list[str] | None = None
    ) -> "Relation":
        names = columns if columns is not None else table.column_names
        cols = {f"{binding}.{name}": table.column(name) for name in names}
        return cls(cols, table.num_rows)

    # -- access -----------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"relation has no column {name!r}; has {list(self.columns)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def row_bytes(self) -> int:
        return sum(c.dtype.width for c in self.columns.values())

    @property
    def nbytes(self) -> int:
        return self.row_bytes * self.num_rows

    # -- transformations -----------------------------------------------------

    def take_no_charge(self, indices: np.ndarray) -> "Relation":
        cols = {name: col.take(indices) for name, col in self.columns.items()}
        return Relation(cols, len(indices))

    def merged(self, other: "Relation") -> "Relation":
        cols = dict(self.columns)
        for name, col in other.columns.items():
            if name in cols:
                raise ExecutionError(f"duplicate column {name!r} in join output")
            cols[name] = col
        return Relation(cols, self.num_rows)

    def renamed_prefix(self, binding: str) -> "Relation":
        """Expose output columns under a new binding (derived tables)."""
        cols = {f"{binding}.{name}": col for name, col in self.columns.items()}
        return Relation(cols, self.num_rows)

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
