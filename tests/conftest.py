"""Shared fixtures: synthetic R/S/T tables and small TPC-H catalogs."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from repro.storage import Catalog, Table, int_type, decimal_type
from repro.tpch import generate_tpch

INT = int_type(4)
DEC = decimal_type()


def make_rst_catalog(seed: int = 7, n_r: int = 40, n_s: int = 120, n_t: int = 90) -> Catalog:
    """The R/S/T schema of the paper's motivating Queries 1-3.

    Data is constructed so that Query 1 (min-subquery) has hits: S
    holds several rows per key and R's col2 sometimes equals the
    per-key minimum.
    """
    rng = np.random.default_rng(seed)
    s_col1 = rng.integers(0, 12, size=n_s)
    s_col2 = rng.integers(0, 50, size=n_s)
    s_col3 = rng.integers(0, 8, size=n_s)

    r_col1 = rng.integers(0, 14, size=n_r)  # some keys missing from S
    r_col2 = np.empty(n_r, dtype=np.int64)
    for i, key in enumerate(r_col1):
        matching = s_col2[s_col1 == key]
        if len(matching) and rng.random() < 0.5:
            r_col2[i] = matching.min()  # guaranteed subquery hit
        else:
            r_col2[i] = rng.integers(0, 50)

    t_col1 = rng.integers(0, 14, size=n_t)
    t_col2 = rng.integers(0, 50, size=n_t)
    t_col3 = rng.integers(0, 8, size=n_t)

    r = Table.from_pydict(
        "r", [("r_col1", INT), ("r_col2", INT)],
        {"r_col1": r_col1, "r_col2": r_col2},
    )
    s = Table.from_pydict(
        "s", [("s_col1", INT), ("s_col2", INT), ("s_col3", INT)],
        {"s_col1": s_col1, "s_col2": s_col2, "s_col3": s_col3},
    )
    t = Table.from_pydict(
        "t", [("t_col1", INT), ("t_col2", INT), ("t_col3", INT)],
        {"t_col1": t_col1, "t_col2": t_col2, "t_col3": t_col3},
    )
    return Catalog([r, s, t])


@pytest.fixture(scope="session")
def rst_catalog() -> Catalog:
    return make_rst_catalog()


@pytest.fixture(scope="session")
def tpch_small() -> Catalog:
    """A small TPC-H catalog shared by the integration tests.

    SF 2 is the smallest micro scale at which every paper query has a
    non-empty answer (Q17's Brand#23/MED BOX parts, Q2's size-15 BRASS
    parts, and the Q2-variant family's Brand#41 intersection all hit).
    """
    return generate_tpch(2.0)


@pytest.fixture
def drive_compiles(monkeypatch):
    """The sources ``builtins.compile`` is asked to compile as drive
    programs (imports compile too; they are not counted)."""
    import builtins

    sources: list[str] = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename == "<drive-program>":
            sources.append(source)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return sources


@pytest.fixture
def thread_guard():
    """A ThreadGuard that always uninstalls, even on test failure."""
    from repro.serve import ThreadGuard

    guard = ThreadGuard()
    yield guard
    guard.uninstall()


def rows_set(result) -> list:
    """Order-insensitive, float-tolerant canonical form of result rows."""
    def canon(row):
        return tuple(
            round(v, 6) if isinstance(v, float) else v for v in row
        )
    return sorted(canon(r) for r in result.rows)
