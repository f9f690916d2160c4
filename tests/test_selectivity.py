"""Exact optimization-time selectivities: counting scans, the
per-table cache, and the PlanBuilder fallback contract."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_rst_catalog
from repro.plan.builder import PlanBuilder
from repro.plan.expressions import (
    BoolOp,
    ColRef,
    Compare,
    Const,
    InCodes,
    ParamRef,
    SubqueryRef,
)
from repro.plan.selectivity import ExactSelectivity

R_COL1 = ColRef("r", "r_col1", "int")
R_COL2 = ColRef("r", "r_col2", "int")
S_COL2 = ColRef("s", "s_col2", "int")


def r_column(catalog, name):
    return np.asarray(catalog.table("r").column(name).data)


class TestExactCounts:
    def test_equality_matches_numpy(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        col = r_column(rst_catalog, "r_col1")
        value = int(col[0])  # guaranteed present
        got = sel.lookup(Compare("=", R_COL1, Const(value)), "r")
        assert got == np.count_nonzero(col == value) / len(col)

    def test_range_matches_numpy(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        col = r_column(rst_catalog, "r_col2")
        got = sel.lookup(Compare("<", R_COL2, Const(25)), "r")
        assert got == np.count_nonzero(col < 25) / len(col)

    def test_in_list_matches_numpy(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        col = r_column(rst_catalog, "r_col1")
        got = sel.lookup(InCodes(R_COL1, (1, 3, 5)), "r")
        assert got == np.count_nonzero(np.isin(col, [1, 3, 5])) / len(col)

    def test_conjunction_sees_correlation(self, rst_catalog):
        """The heuristic multiplies conjunct guesses; the exact count
        evaluates the compound predicate and cannot miss correlation."""
        sel = ExactSelectivity(rst_catalog)
        col = r_column(rst_catalog, "r_col2")
        predicate = BoolOp(
            "and",
            Compare(">=", R_COL2, Const(10)),
            Compare("<", R_COL2, Const(20)),
        )
        got = sel.lookup(predicate, "r")
        assert got == np.count_nonzero((col >= 10) & (col < 20)) / len(col)


class TestCache:
    def test_second_lookup_is_a_hit(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        predicate = Compare("<", R_COL2, Const(25))
        first = sel.lookup(predicate, "r")
        second = sel.lookup(predicate, "r")
        assert first == second
        stats = sel.stats()
        assert stats == {"entries": 1, "hits": 1, "computations": 1}

    def test_catalog_version_bump_invalidates_and_recomputes(self):
        """Entries key on the replaced Table object: replacing ``r``
        recounts ``r`` and leaves ``s``'s entry standing."""
        catalog = make_rst_catalog()
        sel = ExactSelectivity(catalog)
        predicate = Compare("<", R_COL2, Const(25))
        other = Compare("<", S_COL2, Const(25))
        before = sel.lookup(predicate, "r")
        sel.lookup(other, "s")
        assert len(sel) == 2

        from repro.storage import Table, int_type

        # every r_col2 now fails the predicate: selectivity must drop to 0
        replacement = Table.from_pydict(
            "r", [("r_col1", int_type(4)), ("r_col2", int_type(4))],
            {
                "r_col1": np.arange(10, dtype=np.int64),
                "r_col2": np.full(10, 99, dtype=np.int64),
            },
        )
        catalog.replace(replacement)
        after = sel.lookup(predicate, "r")
        assert before > 0.0
        assert after == 0.0
        assert sel.lookup(other, "s") is not None
        stats = sel.stats()
        assert stats["computations"] == 3  # r, s, then the new r
        assert stats["hits"] == 1  # s survived the replace of r
        assert len(sel) == 2  # the old r's entry went with the old r


class TestPlanBuilderIntegration:
    def test_exact_overrides_heuristic(self, rst_catalog):
        col = r_column(rst_catalog, "r_col2")
        predicate = Compare("<", R_COL2, Const(25))
        heuristic = PlanBuilder(rst_catalog)._selectivity(predicate, "r")
        exact = PlanBuilder(
            rst_catalog, exact_selectivity=ExactSelectivity(rst_catalog)
        )._selectivity(predicate, "r")
        assert heuristic == 0.35  # the range guess
        assert exact == np.count_nonzero(col < 25) / len(col)
        assert exact != heuristic

    def test_builder_falls_back_when_unsupported(self, rst_catalog):
        predicate = Compare("=", R_COL1, ParamRef("outer.key", "int"))
        with_exact = PlanBuilder(
            rst_catalog, exact_selectivity=ExactSelectivity(rst_catalog)
        )._selectivity(predicate, "r")
        without = PlanBuilder(rst_catalog)._selectivity(predicate, "r")
        assert with_exact == without


class TestUnsupportedFallsBack:
    def test_parameterized_predicate(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        predicate = Compare("=", R_COL1, ParamRef("outer.key", "int"))
        assert sel.lookup(predicate, "r") is None

    def test_subquery_operand(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        predicate = Compare("<", R_COL2, SubqueryRef(0, "scalar"))
        assert sel.lookup(predicate, "r") is None

    def test_multi_binding_predicate(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        predicate = Compare("=", R_COL1, ColRef("s", "s_col1", "int"))
        assert sel.lookup(predicate, "r") is None

    def test_missing_table_and_column(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog)
        predicate = Compare("<", R_COL2, Const(25))
        assert sel.lookup(predicate, None) is None
        assert sel.lookup(predicate, "nope") is None
        bad_column = Compare("<", ColRef("r", "r_colX", "int"), Const(25))
        assert sel.lookup(bad_column, "r") is None

    def test_oversized_table_keeps_heuristic(self, rst_catalog):
        sel = ExactSelectivity(rst_catalog, max_rows=10)
        predicate = Compare("<", R_COL2, Const(25))
        assert sel.lookup(predicate, "r") is None
        assert sel.stats()["computations"] == 0
