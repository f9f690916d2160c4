"""Correlated bodies the segmented evaluator must refuse, and empty
scalar subqueries, against the rowstore oracle.

Each statement once returned wrong rows or raised in at least one of
nested/auto mode with vectorisation on or off:

* a group-less aggregate with DISTINCT or HAVING was vectorised and
  both clauses were dropped;
* an EXISTS over an aggregate, and a scalar body without an aggregate,
  were vectorised and could not finish;
* a scalar subquery with no row raised instead of yielding NULL.
"""

import math

import pytest

from repro.baselines.rowstore import RowstoreEngine
from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.plan import mark_invariants
from repro.tpch import generate_tpch

STATEMENTS = {
    "count_distinct": (0.01, """
        SELECT p_partkey FROM part WHERE 4 = (
          SELECT count(DISTINCT ps_suppkey) FROM partsupp
          WHERE ps_partkey = p_partkey)"""),
    "having": (0.05, """
        SELECT p_partkey FROM part WHERE p_retailprice > (
          SELECT max(ps_supplycost) FROM partsupp
          WHERE ps_partkey = p_partkey HAVING max(ps_supplycost) > 500)"""),
    "exists_over_aggregate": (0.05, """
        SELECT p_partkey FROM part WHERE EXISTS (
          SELECT max(ps_supplycost) FROM partsupp
          WHERE ps_partkey = p_partkey)"""),
    "scalar_without_aggregate": (0.05, """
        SELECT s_suppkey FROM supplier WHERE s_acctbal > (
          SELECT n_regionkey * 1000 FROM nation
          WHERE n_nationkey = s_nationkey AND n_regionkey > 2)"""),
    "uncorrelated_empty": (0.05, """
        SELECT p_partkey FROM part WHERE p_retailprice > (
          SELECT max(ps_supplycost) FROM partsupp
          WHERE ps_partkey = 7 HAVING max(ps_supplycost) > 99999)"""),
    "select_list_empty": (0.05, """
        SELECT s_suppkey, (
          SELECT n_regionkey FROM nation
          WHERE n_nationkey = s_nationkey AND n_regionkey > 2)
        FROM supplier"""),
}

_CATALOGS: dict = {}


def _catalog(scale: float):
    if scale not in _CATALOGS:
        _CATALOGS[scale] = generate_tpch(scale)
    return _CATALOGS[scale]


def _canon(rows) -> list:
    def value(v):
        v = float(v)
        return None if math.isnan(v) else round(v, 6)
    return sorted(tuple(value(v) for v in row) for row in rows)


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "loop"])
@pytest.mark.parametrize("mode", ["nested", "auto"])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_matches_rowstore_oracle(name, mode, vectorized):
    scale, sql = STATEMENTS[name]
    catalog = _catalog(scale)
    oracle = RowstoreEngine(catalog).execute(sql).rows
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=vectorized), mode=mode
    )
    assert _canon(engine.execute(sql).rows) == _canon(oracle)


@pytest.mark.parametrize("name, reason", [
    ("count_distinct", "DISTINCT aggregate"),
    ("having", "HAVING"),
    ("exists_over_aggregate", "aggregate in an EXISTS body"),
    ("scalar_without_aggregate", "scalar body without one aggregate"),
])
def test_segmented_evaluator_refuses_the_body(name, reason):
    from repro.core.vectorize import refusal

    scale, sql = STATEMENTS[name]
    engine = NestGPU(_catalog(scale), mode="nested")
    (spec,) = engine.prepare(sql).program.specs
    plan = spec.plan
    assert refusal(plan, mark_invariants(plan), spec.descriptor.kind) == reason
