"""Minimized reproducers for divergences the fuzzer surfaced.

Each test pins one engine/oracle bug found by ``repro fuzz`` and fixed
alongside the fuzzer:

* the rowstore oracle evaluated arithmetic through an eagerly-built
  result dict, so ``x * subquery`` raised ``ZeroDivisionError``
  whenever the subquery returned 0 (the division arm executed even
  when the operator was ``*``);
* division by zero now yields NULL (NaN) in every executor instead of
  crashing the oracle and returning inf from the columnar kernels;
* ``InCodes.code_array`` forced int64 — correct for dictionary codes,
  but the binder reuses ``InCodes`` for numeric IN-lists, so decimal
  IN-list items were silently truncated (``5160.58`` matched as
  ``5160``) and the columnar engines disagreed with the oracle;
* the unnester accepted two shapes it could not actually execute and
  died at runtime with ``ExecutionError`` mid-matrix; both now raise
  ``UnnestingError`` at plan time (the documented "use the nested
  method" signal): DISTINCT aggregates, and a nested subquery whose
  correlation reaches past the immediate outer block;
* (found by the auto-mode leg of the differential matrix) the flat-plan
  evaluator required ``inner_plan`` to be pre-attached to uncorrelated
  SUBQ nodes, but only the unnest builder attaches it — an uncorrelated
  subquery nested inside another subquery's body, or sitting below the
  cost model's probe target, crashed with ``ExecutionError``; the
  evaluator now plans the bound block on demand like codegen does;
* the cost model's island probe walked a depth-2 subquery body and died
  on the nested ``SubqueryFilter`` node; ``predict_nested`` now falls
  back to full-run measurement for such bodies;
* ``estimate_flat_plan_ns`` had no case for ``LeftLookup`` /
  ``SubqueryColumn``, so auto mode crashed on any query whose unnested
  plan used the Dayal count rewrite or a SELECT-list subquery.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.rowstore import RowstoreEngine
from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.errors import UnnestingError
from repro.fuzz.differential import canon_rows
from repro.plan.expressions import InCodes, ColRef
from repro.tpch import generate_tpch


@pytest.fixture(scope="module")
def fuzz_catalog():
    return generate_tpch(0.05)


def _oracle(catalog, sql):
    return canon_rows(RowstoreEngine(catalog).execute(sql).rows)


def _engine(catalog, sql, mode):
    db = NestGPU(catalog, options=EngineOptions())
    return canon_rows(db.execute(sql, mode=mode).rows)


def test_rowstore_multiply_by_zero_subquery_does_not_divide(fuzz_catalog):
    # region 0's nation.n_regionkey values are all 0 -> sum is 0; the
    # oracle used to raise ZeroDivisionError evaluating `0.2 * 0`.
    sql = (
        "SELECT r_regionkey FROM region WHERE (1 != (0.2 * "
        "(SELECT sum(n_regionkey) FROM nation WHERE (n_regionkey = r_regionkey))))"
    )
    oracle = _oracle(fuzz_catalog, sql)
    assert oracle == _engine(fuzz_catalog, sql, "nested")


def test_division_by_zero_is_null_everywhere(fuzz_catalog):
    # r_regionkey = 0 for the first region: 1/0 must be NULL (NaN), so
    # the comparison is unknown -> row filtered, not a crash / inf.
    sql = "SELECT r_regionkey FROM region WHERE (1 < (1 / r_regionkey))"
    oracle = _oracle(fuzz_catalog, sql)
    assert oracle == _engine(fuzz_catalog, sql, "nested")
    assert ("NULL",) not in oracle  # rows with NULL comparisons are dropped


def test_decimal_in_list_is_not_truncated(fuzz_catalog):
    # pick a live decimal value; int64 truncation made the engines miss it
    value = float(fuzz_catalog.table("customer").column("c_acctbal").data[0])
    sql = f"SELECT c_custkey FROM customer WHERE c_acctbal IN ({value}, -1.5)"
    oracle = _oracle(fuzz_catalog, sql)
    assert oracle, "sanity: the sampled value must match its own row"
    assert oracle == _engine(fuzz_catalog, sql, "nested")
    assert oracle == _engine(fuzz_catalog, sql, "unnested")


def test_incodes_code_array_preserves_decimals():
    decimals = InCodes(ColRef("t", "c", "decimal"), (0.04, 5160.58), False)
    assert decimals.code_array.dtype.kind == "f"
    assert 5160.58 in decimals.code_array.tolist()
    codes = InCodes(ColRef("t", "c", "str"), (1, 2, 3), False)
    assert codes.code_array.dtype.kind == "i"  # dictionary codes stay int


def test_distinct_aggregate_refuses_to_unnest(fuzz_catalog):
    sql = (
        "SELECT s_suppkey FROM supplier WHERE (3 = (SELECT count(DISTINCT l_tax) "
        "FROM lineitem WHERE (l_suppkey = s_suppkey)))"
    )
    db = NestGPU(fuzz_catalog, options=EngineOptions())
    with pytest.raises(UnnestingError):
        db.execute(sql, mode="unnested")
    # the nested method executes it and agrees with the oracle
    assert _oracle(fuzz_catalog, sql) == _engine(fuzz_catalog, sql, "nested")


def test_deep_correlation_refuses_to_unnest(fuzz_catalog):
    # the innermost subquery correlates with the OUTERMOST block
    # (customer), past the supplier block Kim's rewrite flattens away
    sql = (
        "SELECT c_custkey FROM customer WHERE EXISTS (SELECT * FROM supplier "
        "WHERE ((s_nationkey = c_nationkey) AND EXISTS (SELECT * FROM orders "
        "WHERE (o_custkey = c_custkey))))"
    )
    db = NestGPU(fuzz_catalog, options=EngineOptions())
    with pytest.raises(UnnestingError):
        db.execute(sql, mode="unnested")
    assert _oracle(fuzz_catalog, sql) == _engine(fuzz_catalog, sql, "nested")


def test_nan_from_division_canonicalises_to_null():
    assert canon_rows([(math.nan, 1.0)]) == [("NULL", 1.0)]


# --- auto-mode divergences flushed out by the multi-subquery grammar -------
# (500-iteration seed-7 campaign, cases 7-50/128/143/219/309)


def test_depth2_uncorrelated_scalar_chain_in_auto(fuzz_catalog):
    # case 7-50: the outer subquery is uncorrelated, so the drive
    # program evaluates it once through the flat evaluator — which used
    # to refuse the nested SUBQ node ("uncorrelated subquery was not
    # planned") because only the unnest builder attached inner_plan
    sql = (
        "SELECT o_custkey FROM orders WHERE (o_totalprice > "
        "(SELECT avg(l_extendedprice) FROM lineitem WHERE (l_quantity > "
        "(SELECT max(s_nationkey) FROM supplier))))"
    )
    oracle = _oracle(fuzz_catalog, sql)
    assert oracle == _engine(fuzz_catalog, sql, "auto")
    assert oracle == _engine(fuzz_catalog, sql, "nested")


def test_uncorrelated_exists_below_probe_target_in_auto(fuzz_catalog):
    # case 7-309: AND of an uncorrelated EXISTS and a correlated scalar.
    # predict_nested measures the outer block below the correlated
    # filter with the flat evaluator, which hit the unplanned EXISTS.
    sql = (
        "SELECT s_suppkey FROM supplier WHERE (EXISTS (SELECT * FROM lineitem) "
        "AND (3948 < (2.0 * (SELECT avg(ps_supplycost) FROM partsupp "
        "WHERE (ps_suppkey = s_suppkey)))))"
    )
    assert _oracle(fuzz_catalog, sql) == _engine(fuzz_catalog, sql, "auto")


def test_quantified_over_nested_exists_in_auto(fuzz_catalog):
    # case 7-219: ANY subquery whose body contains its own EXISTS; the
    # cost model's island probe cannot walk a nested SUBQ node and now
    # falls back to measuring the full execution
    sql = (
        "SELECT o_custkey FROM orders WHERE o_orderkey >= ANY "
        "(SELECT l_orderkey FROM lineitem WHERE EXISTS (SELECT * FROM part))"
    )
    assert _oracle(fuzz_catalog, sql) == _engine(fuzz_catalog, sql, "auto")


def test_depth2_correlated_probe_falls_back_to_full_run(fuzz_catalog):
    # unminimized shape of cases 7-50/143: the probe target is a
    # correlated scalar whose body holds another correlated scalar —
    # run_iteration used to die with "cannot probe node SubqueryFilter"
    sql = (
        "SELECT o_custkey FROM orders WHERE (o_totalprice > "
        "(SELECT avg(l_extendedprice) FROM lineitem WHERE ((l_orderkey = o_orderkey) "
        "AND (l_quantity > (SELECT max(s_nationkey) FROM supplier "
        "WHERE (s_suppkey = l_suppkey))))))"
    )
    assert _oracle(fuzz_catalog, sql) == _engine(fuzz_catalog, sql, "auto")


def test_select_list_subquery_estimable_in_auto(fuzz_catalog):
    # found while wiring auto into the differential matrix: the flat
    # estimator had no LeftLookup / SubqueryColumn cases, so any
    # SELECT-list subquery crashed auto-mode path prediction with
    # "cannot estimate node"
    sql = (
        "SELECT p_partkey, (SELECT min(l_orderkey) FROM lineitem "
        "WHERE (l_partkey = p_partkey)) AS v FROM part"
    )
    assert _oracle(fuzz_catalog, sql) == _engine(fuzz_catalog, sql, "auto")
