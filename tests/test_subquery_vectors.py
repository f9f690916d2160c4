"""Tests for subquery result vectors (scalar, exists, two-level)."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    ExistsResultVector,
    NestGPU,
    ScalarResultVector,
    TwoLevelResultVector,
)


class TestScalarVector:
    def test_store_and_validity(self):
        v = ScalarResultVector(3)
        v.store(0, 5.0, True)
        v.store(1, float("nan"), False)
        assert v.values[0] == 5.0
        assert v.valid[0] and not v.valid[1] and not v.valid[2]

    def test_store_rows(self):
        v = ScalarResultVector(4)
        v.store_rows(np.array([1, 3]), np.array([7.0, 9.0]), np.array([True, True]))
        assert v.values[3] == 9.0 and v.valid[3]

    def test_default_invalid(self):
        v = ScalarResultVector(2)
        assert not v.valid.any()
        assert np.isnan(v.values).all()

    def test_nbytes(self):
        v = ScalarResultVector(10)
        assert v.nbytes == 10 * 8 + 10


class TestExistsVector:
    def test_store(self):
        v = ExistsResultVector(3)
        v.store(1, True)
        assert list(v.flags) == [False, True, False]

    def test_store_rows(self):
        v = ExistsResultVector(3)
        v.store_rows(np.array([0, 2]), np.array([True, True]))
        assert list(v.flags) == [True, False, True]


class TestTwoLevelVector:
    def test_lengths_and_values(self):
        v = TwoLevelResultVector(3)
        v.store(0, np.array([1.0, 2.0]))
        v.store(2, np.array([9.0]))
        v.freeze()
        assert list(v.lengths) == [2, 0, 1]
        assert list(v.values) == [1.0, 2.0, 9.0]

    def test_contains(self):
        v = TwoLevelResultVector(2)
        v.store(0, np.array([4.0, 5.0]))
        v.store(1, np.array([6.0]))
        v.freeze()
        assert v.contains(0, 5.0)
        assert not v.contains(0, 6.0)
        assert v.contains(1, 6.0)

    def test_membership_vectorised(self):
        v = TwoLevelResultVector(3)
        v.store(0, np.array([1.0]))
        v.store(1, np.array([2.0, 3.0]))
        v.freeze()  # row 2 empty
        probe = np.array([1.0, 9.0, 5.0])
        assert list(v.membership(probe)) == [True, False, False]

    def test_empty_vector(self):
        v = TwoLevelResultVector(2)
        v.freeze()
        assert list(v.lengths) == [0, 0]
        assert not v.membership(np.array([1.0, 2.0])).any()

    def test_requires_freeze(self):
        v = TwoLevelResultVector(1)
        v.store(0, np.array([1.0]))
        with pytest.raises(AssertionError):
            v.contains(0, 1.0)


# -- an uncorrelated IN in a drive program ------------------------------

# (operand, outer table, inner statement) per case; ``r_regionkey /
# r_regionkey`` holds a NULL (0/0) and ``n_nationkey / (n_nationkey - 3)``
# is NULL for key 3
UNCORRELATED_IN = {
    "plain": ("o_custkey", "orders",
              "SELECT c_custkey FROM customer WHERE (c_acctbal > 0)"),
    "null-in-set": ("n_nationkey", "nation",
                    "SELECT (r_regionkey / r_regionkey) FROM region"),
    "null-operand": ("(n_nationkey / (n_nationkey - 3))", "nation",
                     "SELECT r_regionkey FROM region"),
    "null-both": ("(n_nationkey / (n_nationkey - 3))", "nation",
                  "SELECT (r_regionkey / r_regionkey) FROM region"),
}

# nested mode at SF 2, as the set was stored once per outer row:
# (repr of the rows, repr of total_ns)
UNCORRELATED_IN_PIN = {
    ("plain", "IN"): ("[(5366.0, 1600964.0)]", "51550.15663266405"),
    ("plain", "NOT IN"): ("[(634.0, 198298.0)]", "50796.56032465741"),
    ("null-in-set", "IN"): ("[(1.0, 1.0)]", "32353.061695083772"),
    ("null-in-set", "NOT IN"): ("[(0.0, nan)]", "27133.04569508377"),
    ("null-operand", "IN"): ("[(3.0, 6.0)]", "48141.785445242436"),
    ("null-operand", "NOT IN"): (
        "[(21.0, 23.436076114288188)]", "48759.69152809511"
    ),
    ("null-both", "IN"): ("[(0.0, nan)]", "47573.045695083776"),
    ("null-both", "NOT IN"): ("[(0.0, nan)]", "47573.045695083776"),
}


def _uncorrelated_in(case: str, op: str) -> str:
    operand, table, inner = UNCORRELATED_IN[case]
    return (
        f"SELECT count(*), sum({operand}) FROM {table} "
        f"WHERE ({operand} {op} ({inner}))"
    )


@pytest.mark.parametrize("case", sorted(UNCORRELATED_IN_PIN), ids=str)
def test_uncorrelated_in_keeps_rows_and_modelled_time(tpch_small, case):
    result = NestGPU(tpch_small).execute(_uncorrelated_in(*case), mode="nested")
    assert result.subquery_paths == {0: "once"}
    assert (repr(result.rows), repr(result.stats.total_ns)) == (
        UNCORRELATED_IN_PIN[case]
    )


def test_uncorrelated_in_holds_its_set_once(tpch_small):
    """A set stored once per outer row would peak at N x |S| x 8 bytes."""
    engine = NestGPU(tpch_small)
    prepared = engine.prepare(_uncorrelated_in("plain", "IN"), "nested")
    engine.run_prepared(prepared)
    outer = tpch_small.table("orders").num_rows
    members = sum(tpch_small.table("customer").column("c_acctbal").data > 0)
    tracemalloc.start()
    try:
        engine.run_prepared(prepared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < outer * members * 8 / 20
