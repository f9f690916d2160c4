"""The shape of the compile pipeline: parse once, bind once, one plan
builder and one codegen pass per candidate path — through every layer
that compiles.

The counts are taken at the names ``NestGPU.prepare`` resolves at call
time (``repro.core.executor.parse`` / ``.PlanBuilder``) and on
``Binder.bind``, so the cost model's private selectivity helper and the
sharded body program's own builder — which are not candidates — stay
out of the builder count.
"""

from __future__ import annotations

import pytest
from conftest import make_rst_catalog

from repro.core import NestGPU, PreparedQuery, ShardedEngine, executor
from repro.engine import EngineOptions
from repro.plan import Binder, PlanBuilder
from repro.serve import EngineSession

FLAT = "SELECT r_col1 FROM r WHERE r_col2 > 3"
CORRELATED = (
    "SELECT r_col1, r_col2 FROM r WHERE r_col2 = "
    "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1)"
)
# a non-equality correlation is outside Kim's rewrite: the unnester refuses
REFUSED = (
    "SELECT r_col1, r_col2 FROM r WHERE r_col2 > "
    "(SELECT MIN(s_col2) FROM s WHERE s_col1 <> r.r_col1)"
)


@pytest.fixture(scope="module")
def catalog():
    return make_rst_catalog()


@pytest.fixture
def calls(monkeypatch):
    """Counts of parse / bind / codegen calls and candidate builders
    constructed."""
    counts = {"parse": 0, "bind": 0, "generate": 0, "builders": []}
    real_parse, real_bind = executor.parse, Binder.bind
    real_generate = executor.generate_drive_program

    def generate(*args, **kwargs):
        counts["generate"] += 1
        return real_generate(*args, **kwargs)

    def parse(sql):
        counts["parse"] += 1
        return real_parse(sql)

    def bind(self, stmt):
        counts["bind"] += 1
        return real_bind(self, stmt)

    class CountingBuilder(PlanBuilder):
        def __init__(self, *args, unnest=False, **kwargs):
            counts["builders"].append("unnested" if unnest else "nested")
            super().__init__(*args, unnest=unnest, **kwargs)

    monkeypatch.setattr(executor, "parse", parse)
    monkeypatch.setattr(Binder, "bind", bind)
    monkeypatch.setattr(executor, "PlanBuilder", CountingBuilder)
    monkeypatch.setattr(executor, "generate_drive_program", generate)
    return counts


@pytest.mark.parametrize(
    "sql,mode,choice,builders",
    [
        (FLAT, "auto", "flat", ["nested"]),
        (CORRELATED, "nested", "nested", ["nested"]),
        (CORRELATED, "unnested", "unnested", ["unnested"]),
        (CORRELATED, "auto", None, ["unnested", "nested"]),
        (REFUSED, "auto", "nested", ["unnested", "nested"]),
    ],
    ids=["flat", "forced-nested", "forced-unnested", "auto-both",
         "auto-refused"],
)
def test_solo_prepare_parses_and_binds_once(
    catalog, calls, sql, mode, choice, builders
):
    prepared = NestGPU(catalog).prepare(sql, mode)
    assert (calls["parse"], calls["bind"]) == (1, 1)
    assert calls["builders"] == builders  # one per candidate path
    if choice is not None:
        assert prepared.choice == choice
    else:
        # both candidates were costed from the one bound block
        assert prepared.predicted_ms is not None
        assert prepared.block is (prepared.fallback or prepared).block


# no predicate anywhere: a fusion pass over it records no site
NO_SITE = "SELECT r_col1 FROM r"


@pytest.mark.parametrize("fusion", ["off", "on", "auto"])
@pytest.mark.parametrize(
    "sql,mode,candidates",
    [(NO_SITE, "auto", 1), (FLAT, "auto", 1), (CORRELATED, "nested", 1),
     (CORRELATED, "auto", 1), (REFUSED, "auto", 1)],
    ids=["no-site", "flat", "forced-nested", "auto-both", "auto-refused"],
)
def test_one_codegen_pass_per_candidate_in_every_fusion_mode(
    catalog, calls, fusion, sql, mode, candidates
):
    """Launch-only programs are decided at plan time from the one fused
    emission, and a pass that finds nothing to fuse *is* the plain
    program — no second emission in either case.  Auto mode's losing
    candidate is planned and costed but never generated."""
    engine = NestGPU(catalog, options=EngineOptions(fusion=fusion))
    prepared = engine.prepare(sql, mode)
    assert calls["generate"] == candidates
    if prepared.fallback is not None:
        assert prepared.fallback.program is None
    if sql is NO_SITE:
        assert prepared.fusion_decision.source == "off"
        assert prepared.program.fusion is None
        assert "# fusion" not in prepared.program.source


def test_sharded_prepare_parses_and_binds_once(catalog, calls):
    prepared = ShardedEngine(catalog, shards=2).prepare(CORRELATED)
    assert prepared.placement is not None
    assert (calls["parse"], calls["bind"]) == (1, 1)


def test_session_miss_compiles_once_and_hit_not_at_all(catalog, calls):
    with EngineSession(catalog) as session:
        _, hit = session.lookup_or_prepare(CORRELATED)
        assert not hit
        assert (calls["parse"], calls["bind"]) == (1, 1)
        candidates = len(calls["builders"])
        _, hit = session.lookup_or_prepare(CORRELATED)
        assert hit
        assert (calls["parse"], calls["bind"]) == (1, 1)
        assert len(calls["builders"]) == candidates


def test_sharded_explain_of_a_group_of_one_compiles_once(catalog, calls):
    engine = ShardedEngine(catalog, shards=1)
    text = engine.explain(CORRELATED)
    assert (calls["parse"], calls["bind"]) == (1, 1)
    assert text == NestGPU(catalog).explain(CORRELATED)


def test_sharded_session_drive_source_compiles_once(catalog, calls):
    with EngineSession(catalog, shards=2) as session:
        source = session.drive_source(CORRELATED)
    assert (calls["parse"], calls["bind"]) == (1, 1)
    assert "def drive(rt)" in source


def test_sharded_prepared_reads_like_a_prepared_query(catalog):
    solo = NestGPU(catalog).prepare(CORRELATED)
    one = ShardedEngine(catalog, shards=1).prepare(CORRELATED)
    assert isinstance(one, PreparedQuery) and one.placement is None
    assert one.program.source == solo.program.source
    group = ShardedEngine(catalog, shards=2).prepare(CORRELATED)
    assert isinstance(group, PreparedQuery) and group.placement is not None
    assert group.program.source != solo.program.source  # the per-shard body
    assert group.plan is not group.placement.body  # the solo plan stays
    for prepared in (one, group):
        assert prepared.fusion_decision == solo.fusion_decision
        assert prepared.choice == solo.choice


# -- each compile artifact once -------------------------------------------

def _paper_and_fuzz(catalog, count: int = 100) -> list[str]:
    from repro.fuzz.generator import generate_query
    from repro.tpch import ALL_EVALUATION_QUERIES

    return list(ALL_EVALUATION_QUERIES.values()) + [
        generate_query(catalog, 7, index).sql for index in range(count)
    ]


@pytest.mark.parametrize("fusion", ["off", "auto"])
def test_the_unnested_candidate_generated_on_demand_equals_the_eager_one(
    fusion,
):
    """Auto mode generates the unnested candidate only when it wins or
    the governor reruns it; either way its program is the one an eager
    compile of that candidate writes."""
    from repro.errors import ReproError
    from repro.fuzz.runner import DEFAULT_SCALE
    from repro.obs.tracer import NULL_TRACER
    from repro.tpch import generate_tpch

    catalog = generate_tpch(DEFAULT_SCALE)
    options = EngineOptions(fusion=fusion)
    compared = losers = 0
    for sql in _paper_and_fuzz(catalog):
        engine = NestGPU(catalog, options=options)
        try:
            prepared = engine.prepare(sql)
        except ReproError:
            continue
        if prepared.fallback is not None:
            losers += 1
            assert prepared.fallback.program is None
            candidate = engine._generate(prepared.fallback, NULL_TRACER)
        elif prepared.choice == "unnested":
            candidate = prepared
        else:
            continue
        eager = NestGPU(catalog, options=options)._compile_candidate(
            prepared.block, "unnested", sql, NULL_TRACER
        )
        assert candidate.program.source == eager.program.source
        assert candidate.fusion_decision == eager.fusion_decision
        compared += 1
    assert losers > 0 and compared > losers


def test_a_cold_auto_execute_marks_each_subq_body_once(monkeypatch):
    """Codegen's marking rides on the SubquerySpec: the costing probe,
    the run and EXPLAIN read it instead of marking the body again."""
    from repro.core import codegen
    from repro.plan import invariants
    from repro.tpch import TPCH_Q17, generate_tpch

    marked: list[int] = []
    real = invariants.mark_invariants

    def counting(plan):
        marked.append(id(plan))
        return real(plan)

    for module in (codegen, invariants):
        monkeypatch.setattr(module, "mark_invariants", counting)
    engine = NestGPU(generate_tpch(2.0))
    prepared = engine.prepare(TPCH_Q17)
    result = engine.run_prepared(prepared)
    assert result.rows
    engine.explain_prepared(prepared)
    bodies = [id(spec.plan) for spec in prepared.program.specs]
    assert prepared.choice == "nested" and bodies
    assert sorted(marked) == sorted(bodies)


def test_plan_cache_misses_compile_once_sort_nothing_and_count_once(
    monkeypatch, drive_compiles,
):
    """Tier-1 twin of CI's "Plan-cache-miss profile" step (a time share
    there, call counts here): 50 distinct Q17 bindings after the first
    compile no new drive source, sort no base column again and count
    each (table, predicate) once."""
    from repro.core.codegen import _compile
    from repro.gpu import kernels
    from repro.plan.selectivity import ExactSelectivity
    from repro.tpch import TPCH_Q17, generate_tpch

    catalog = generate_tpch(10)
    part = catalog.table("part")
    pairs = list(dict.fromkeys(zip(
        part.column("p_brand").to_python(),
        part.column("p_container").to_python(),
    )))[:51]
    assert len(pairs) == 51
    session = EngineSession(catalog)
    statement = session.prepare_statement(
        TPCH_Q17.replace("'Brand#23'", "$1").replace("'MED BOX'", "$2")
    )
    counted: list[tuple] = []
    real_compute = ExactSelectivity._compute

    def compute(self, predicate, table):
        share = real_compute(self, predicate, table)
        if share is not None:  # a counting scan ran
            counted.append((table.name, repr(predicate)))
        return share

    monkeypatch.setattr(ExactSelectivity, "_compute", compute)
    _compile.cache_clear()
    statement.execute(*pairs[0])  # residency and the shared l_partkey index
    first_compiles, sorts = len(drive_compiles), []
    real_order = kernels.stable_order

    def stable_order(keys):
        sorts.append(len(keys))
        return real_order(keys)

    monkeypatch.setattr(kernels, "stable_order", stable_order)
    for pair in pairs[1:]:
        statement.execute(*pair)
    session.close()
    assert session.plan_cache.stats()["misses"] >= 51
    assert len(drive_compiles) - first_compiles <= 1
    assert sorts == []
    assert counted and len(counted) == len(set(counted))
