"""Relations gather a column once, when it is read.

A relation carries row ids per source, not gathered columns; these
tests pin that the lazy form is indistinguishable from gathering every
column through every operator (names, order, data, modelled widths),
that an unread column is never gathered, and how many host gathers one
warm paper-mix pass makes.
"""

from unittest import mock

import numpy as np
import pytest

from repro.engine import EngineOptions, ExecutionContext, Relation
from repro.engine import operators as ops
from repro.errors import ExecutionError
from repro.gpu import Device, DeviceSpec
from repro.plan.expressions import ColRef, Compare, Const
from repro.serve import EngineSession
from repro.serve.scheduler import paper_mix_statements
from repro.storage import BIGINT, DECIMAL, INT, Column, Dictionary, char
from repro.tpch import generate_tpch

WORDS = Dictionary(["ant", "bee", "cat", "dog"])


def source(rng, prefix: str, num_rows: int) -> dict[str, Column]:
    """Four columns of four widths, one of them dictionary-encoded."""
    return {
        f"{prefix}.i": Column("i", INT, rng.integers(-50, 50, num_rows)),
        f"{prefix}.b": Column("b", BIGINT, rng.integers(0, 1 << 40, num_rows)),
        f"{prefix}.d": Column("d", DECIMAL, rng.normal(size=num_rows)),
        f"{prefix}.s": Column(
            "s", char(3), rng.integers(0, len(WORDS), num_rows), WORDS
        ),
    }


class Eager:
    """The relation as it was: every operator gathers every column."""

    def __init__(self, columns: dict[str, Column], num_rows: int):
        self.columns, self.num_rows = dict(columns), num_rows

    def take(self, indices):
        cols = {n: c.take(indices) for n, c in self.columns.items()}
        return Eager(cols, len(indices))

    def merged(self, other):
        assert not set(self.columns) & set(other.columns)
        return Eager({**self.columns, **other.columns}, self.num_rows)

    def renamed_prefix(self, binding):
        cols = {f"{binding}.{n}": c for n, c in self.columns.items()}
        return Eager(cols, self.num_rows)

    @property
    def row_bytes(self):
        return sum(c.dtype.width for c in self.columns.values())


def assert_same(lazy: Relation, eager: Eager) -> None:
    assert lazy.num_rows == eager.num_rows
    assert lazy.row_bytes == eager.row_bytes
    assert lazy.nbytes == eager.row_bytes * eager.num_rows
    assert list(lazy.columns) == list(eager.columns)
    for name, want in eager.columns.items():
        got = lazy.column(name)
        assert (got.name, got.dtype, got.dictionary) == (
            want.name, want.dtype, want.dictionary
        )
        assert got.data.dtype == want.data.dtype
        np.testing.assert_array_equal(got.data, want.data)


def random_indices(rng, num_rows: int) -> np.ndarray:
    if num_rows == 0:
        return np.empty(0, dtype=np.int64)
    return rng.integers(0, num_rows, rng.integers(0, 2 * num_rows))


@pytest.mark.parametrize("seed", range(12))
def test_operator_chains_match_the_eager_twin(seed):
    rng = np.random.default_rng(seed)
    columns = source(rng, "t0", 30)
    lazy, eager = Relation(columns, 30), Eager(columns, 30)
    for step in range(1, 12):
        op = rng.choice(["take", "merged", "with_columns", "renamed", "read"])
        if op == "take":
            indices = random_indices(rng, lazy.num_rows)
            lazy, eager = lazy.take_no_charge(indices), eager.take(indices)
        elif op == "merged":
            # the right side is itself a selection over a longer source
            wide = source(rng, f"t{step}", lazy.num_rows + 5)
            rows = rng.permutation(lazy.num_rows + 5)[: lazy.num_rows]
            right = Relation(wide).take_no_charge(rows)
            lazy = lazy.merged(right)
            eager = eager.merged(Eager(wide, lazy.num_rows + 5).take(rows))
        elif op == "with_columns":
            extra = {f"x{step}": Column(f"x{step}", DECIMAL,
                                        rng.normal(size=lazy.num_rows))}
            lazy = lazy.with_columns(extra)
            eager = eager.merged(Eager(extra, lazy.num_rows))
        elif op == "renamed":
            lazy = lazy.renamed_prefix(f"v{step}")
            eager = eager.renamed_prefix(f"v{step}")
        else:  # a read memoises the gather; later operators must not care
            names = list(eager.columns)
            lazy.column(names[rng.integers(len(names))])
        assert_same(lazy, eager)


def test_first_column_and_read_only_view():
    rng = np.random.default_rng(0)
    rel = Relation(source(rng, "a", 8)).take_no_charge(np.array([3, 1]))
    rel = rel.merged(Relation(source(rng, "b", 2)))
    assert rel.first_column().data.tolist() == rel.column("a.i").data.tolist()
    with pytest.raises(TypeError):
        rel.columns["a.i"] = rel.column("b.i")
    with pytest.raises(ExecutionError, match="duplicate column 'b.i'"):
        rel.with_columns({"b.i": rel.column("b.i")})
    with pytest.raises(ExecutionError, match="has no column 'z'"):
        rel.column("z")


def test_unread_column_is_never_gathered(rst_catalog):
    ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
    taken: list[str] = []
    real_take = Column.take

    def counting_take(col, indices):
        taken.append(col.name)
        return real_take(col, indices)

    def ref(binding, name):
        return ColRef(binding, name, "int")

    with mock.patch.object(Column, "take", counting_take):
        s = ops.scan(ctx, "s", "s", [Compare(">", ref("s", "s_col2"), Const(10))])
        s = ops.filter_rel(ctx, s, Compare("<", ref("s", "s_col1"), Const(9)))
        r = ops.scan(ctx, "r", "r", [])
        out = ops.join(ctx, r, s, ref("r", "r_col1"), ref("s", "s_col1"))
        out.column("r.r_col2")
        assert "s_col3" not in taken
        # ... while every modelled charge still counts it
        assert out.row_bytes == 5 * INT.width
        assert out.num_rows > 0
        # the first read gathers, the second is memoised
        out.column("s.s_col3")
        out.column("s.s_col3")
        assert taken.count("s_col3") == 1


#: an eager relation (one gather per carried column per operator) makes
#: 720 (default) and 756 (nested) gathers in the same pass
TAKE_BOUND = 216


@pytest.mark.parametrize("kwargs", [
    {},
    {"mode": "nested", "options": EngineOptions(use_vectorization=False)},
], ids=["default", "nested-loop"])
def test_warm_paper_mix_gather_count(kwargs):
    """A deterministic stand-in for a wall-clock gate on the warm path:
    host gathers per warm paper-mix pass (10 statements, sf 0.5)."""
    session = EngineSession(generate_tpch(0.5), **kwargs)
    try:
        for sql in paper_mix_statements():
            session.execute(sql)
        calls = 0
        real_take = Column.take

        def counting_take(col, indices):
            nonlocal calls
            calls += 1
            return real_take(col, indices)

        with mock.patch.object(Column, "take", counting_take):
            for sql in paper_mix_statements():
                session.execute(sql)
    finally:
        session.close()
    assert 0 < calls <= TAKE_BOUND
