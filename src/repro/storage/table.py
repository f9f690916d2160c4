"""Column-store tables."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import CatalogError, ReproError
from .column import Column, column_from_values
from .datatypes import DataType
from .schema import ColumnDef, Schema


class Table:
    """A named column-store table: a schema plus one column per field.

    Tables are immutable once constructed; operators create new tables
    rather than mutating existing ones, matching the materialization
    discipline of the paper's engine.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise ReproError(f"table {name!r} needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise ReproError(
                f"table {name!r}: columns have differing lengths {sorted(lengths)}"
            )
        self.name = name
        self._columns = list(columns)
        self._by_name = {c.name: c for c in columns}
        self._distinct: dict[str, int] = {}  # column -> distinct_count
        if len(self._by_name) != len(columns):
            raise CatalogError(f"table {name!r}: duplicate column names")

    # -- construction -------------------------------------------------

    @classmethod
    def from_pydict(
        cls, name: str, spec: Sequence[tuple[str, DataType]], data: dict
    ) -> "Table":
        """Build a table from a dict of Python value lists.

        ``spec`` fixes column order and types; ``data`` maps column
        name to its values.
        """
        columns = [
            column_from_values(col_name, dtype, data[col_name])
            for col_name, dtype in spec
        ]
        return cls(name, columns)

    # -- shape --------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._columns[0])

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def columns(self) -> list[Column]:
        return list(self._columns)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self._columns]

    @property
    def nbytes(self) -> int:
        """Logical size in bytes under declared column widths."""
        return sum(c.nbytes for c in self._columns)

    def schema(self) -> Schema:
        return Schema([ColumnDef(c.name, c.dtype) for c in self._columns])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names})"

    # -- access -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def distinct_count(self, name: str) -> int:
        """Distinct values among the column's first 50 000 rows (>= 1):
        the planner's statistic, counted once per (immutable) table."""
        if name not in self._distinct:
            sample = self.column(name).data[:50_000]
            self._distinct[name] = max(1, len(np.unique(sample)))
        return self._distinct[name]

    def select_columns(self, names: Iterable[str]) -> "Table":
        """Projection by column name, preserving this table's name."""
        return Table(self.name, [self.column(n) for n in names])

    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position across all columns."""
        return Table(self.name, [c.take(indices) for c in self._columns])

    def renamed(self, name: str) -> "Table":
        """The same columns registered under a different table name.

        Sharded execution uses this to hold several *forms* of one base
        table in a shard catalog at once (home slice, replicated full
        copy, hash-repartitioned slice) under form-qualified names.
        """
        return Table(name, self._columns)

    def rows(self) -> list[tuple]:
        """Decode the whole table into Python row tuples (small results)."""
        decoded = [c.to_python() for c in self._columns]
        return list(zip(*decoded))
