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
     (CORRELATED, "auto", 2), (REFUSED, "auto", 1)],
    ids=["no-site", "flat", "forced-nested", "auto-both", "auto-refused"],
)
def test_one_codegen_pass_per_candidate_in_every_fusion_mode(
    catalog, calls, fusion, sql, mode, candidates
):
    """Launch-only programs are decided at plan time from the one fused
    emission, and a pass that finds nothing to fuse *is* the plain
    program — no second emission in either case."""
    engine = NestGPU(catalog, options=EngineOptions(fusion=fusion))
    prepared = engine.prepare(sql, mode)
    assert calls["generate"] == candidates
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
