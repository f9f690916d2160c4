"""The catalog: the set of base tables known to an engine."""

from __future__ import annotations

from typing import Iterator

from ..errors import CatalogError
from .table import Table


class Catalog:
    """Named base tables plus column-name resolution.

    TPC-H column names are globally unique (``l_orderkey`` only exists
    on ``lineitem``), which the binder exploits: unqualified column
    references resolve through :meth:`resolve_column`.
    """

    def __init__(self, tables: list[Table] | None = None):
        self._tables: dict[str, Table] = {}
        #: Data-change counter: moved by :meth:`register` and
        #: :meth:`replace` only.  Read by the two owners of device state
        #: derived from table data (the session and the sharded engine),
        #: which free it when the counter moves; memos of pure functions
        #: of a table key on the immutable ``Table`` object instead.
        self.version = 0
        for table in tables or []:
            self.register(table)

    def register(self, table: Table) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[key] = table
        self.version += 1

    def replace(self, table: Table) -> None:
        """Register or overwrite — used when regenerating data at a new scale."""
        self._tables[table.name.lower()] = table
        self.version += 1

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_names(self) -> list[str]:
        return [t.name for t in self._tables.values()]

    def resolve_column(self, column: str) -> str:
        """Return the name of the unique table owning ``column``.

        Raises:
            CatalogError: if no table or more than one table has it.
        """
        owners = [t.name for t in self._tables.values() if column in t]
        if not owners:
            raise CatalogError(f"no table has a column named {column!r}")
        if len(owners) > 1:
            raise CatalogError(
                f"ambiguous column {column!r}: in tables {owners}"
            )
        return owners[0]

    def total_bytes(self) -> int:
        """Logical bytes across all base tables."""
        return sum(t.nbytes for t in self._tables.values())
