"""Unit tests for tables and the catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, ReproError
from repro.storage import Catalog, INT, DECIMAL, Table, column_from_values


def _table(name="nums", n=5):
    return Table.from_pydict(
        name,
        [("a", INT), ("b", DECIMAL)],
        {"a": list(range(n)), "b": [float(i) * 1.5 for i in range(n)]},
    )


class TestTable:
    def test_shape(self):
        t = _table(n=7)
        assert t.num_rows == 7
        assert t.column_names == ["a", "b"]

    def test_mismatched_lengths_rejected(self):
        a = column_from_values("a", INT, [1, 2])
        b = column_from_values("b", INT, [1])
        with pytest.raises(ReproError):
            Table("bad", [a, b])

    def test_duplicate_columns_rejected(self):
        a = column_from_values("a", INT, [1])
        with pytest.raises(CatalogError):
            Table("bad", [a, a])

    def test_empty_columns_rejected(self):
        with pytest.raises(ReproError):
            Table("bad", [])

    def test_column_lookup(self):
        t = _table()
        assert t.column("a").name == "a"
        with pytest.raises(CatalogError):
            t.column("zzz")

    def test_take(self):
        t = _table()
        taken = t.take(np.array([4, 0]))
        assert taken.column("a").to_python() == [4, 0]

    def test_rows(self):
        t = _table(n=2)
        assert t.rows() == [(0, 0.0), (1, 1.5)]


class TestCatalog:
    def test_register_and_lookup(self):
        c = Catalog([_table("x")])
        assert c.table("x").name == "x"
        assert c.table("X").name == "x"  # case-insensitive

    def test_duplicate_registration(self):
        c = Catalog([_table("x")])
        with pytest.raises(CatalogError):
            c.register(_table("x"))

    def test_replace(self):
        c = Catalog([_table("x", n=3)])
        c.replace(_table("x", n=9))
        assert c.table("x").num_rows == 9

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog([]).table("nope")

    def test_resolve_column_unique(self):
        c = Catalog([_table("x")])
        assert c.resolve_column("a") == "x"

    def test_resolve_column_ambiguous(self):
        c = Catalog([_table("x"), _table("y")])
        with pytest.raises(CatalogError):
            c.resolve_column("a")

    def test_resolve_column_missing(self):
        with pytest.raises(CatalogError):
            Catalog([_table("x")]).resolve_column("zzz")

    def test_iteration_and_len(self):
        c = Catalog([_table("x"), _table("y")])
        assert len(c) == 2
        assert sorted(t.name for t in c) == ["x", "y"]
