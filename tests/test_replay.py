"""The replayed SUBQ loop charges exactly what the loop charges.

Each statement runs twice in one process: once with the replay
(``repro.core.replay``) and once with the per-iteration loop forced by
patching the coverage predicate.  Rows, the modelled clock, the launch
sequence, device memory, every per-node booking and every loop counter
must be equal, not close.  The observation is ``tools/corpus.py``'s; the
fuzz corpus's replay checks run in its one pass (``tests/test_corpus.py``).
"""

import dataclasses

import numpy as np
import pytest

import corpus
from repro.core import NestGPU, replay, vectorize
from repro.core.subquery import AdaptiveSwitch
from repro.engine import EngineOptions
from repro.obs import Tracer
from repro.obs.telemetry import span_to_dict
from repro.plan.invariants import mark_invariants
from repro.serve import EngineSession
from repro.storage import Catalog, Table, decimal_type, int_type
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

SCALE = 0.5
LOOP_CONFIGS = {
    "default": {},
    "cache_off": {"use_cache": False},
    "index_off": {"use_index": False},
    "pools_off": {"use_memory_pools": False},
}


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


def _both(run):
    run()  # planning-time statistics are memoised by the first run
    replayed = corpus.observe(run)
    looped = corpus.observe(run, forced_loop=True)
    assert all(path == "loop: forced" for path in looped[0].subquery_paths.values()
               if path.startswith("loop"))
    return (corpus.replay_view(replayed), corpus.replay_view(looped),
            replayed[0].subquery_paths)


@pytest.mark.parametrize("config", sorted(LOOP_CONFIGS))
@pytest.mark.parametrize("name", sorted(ALL_EVALUATION_QUERIES))
def test_paper_queries_replay_the_loop(catalog, name, config):
    options = EngineOptions(use_vectorization=False, **LOOP_CONFIGS[config])
    sql = ALL_EVALUATION_QUERIES[name]
    engine = NestGPU(catalog, options=options, mode="nested")
    replayed, looped, paths = _both(lambda: engine.execute(sql))
    assert replayed == looped
    if name != "tpch_q4":
        assert paths == {0: "replayed"}


def test_governor_fires_inside_a_replayed_loop(catalog, monkeypatch):
    """A nested plan with an unnested fallback and a tiny abandon
    budget: the switch happens at the same iteration, with the same
    sunk cost, replayed or looped."""
    fired: list = []
    init = AdaptiveSwitch.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        fired.append(self.done)

    monkeypatch.setattr(AdaptiveSwitch, "__init__", recording_init)
    drives: list = []
    drive = replay._Body.drive

    def counting_drive(self, *args):
        drives.append(self)
        return drive(self, *args)

    monkeypatch.setattr(replay._Body, "drive", counting_drive)
    sql = """
        SELECT p_partkey FROM part WHERE p_size < 3 AND p_retailprice > (
          SELECT 2 * max(ps_supplycost) FROM partsupp
          WHERE ps_partkey = p_partkey)"""
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="auto"
    )
    prepared = dataclasses.replace(
        engine.prepare(sql, mode="nested"),
        fallback=engine.prepare(sql, mode="unnested"), unnested_ms=1e-6,
    )
    replayed, looped, paths = _both(lambda: engine.run_prepared(prepared))
    assert replayed == looped
    assert replayed["adaptive_switch"] and paths == {}
    assert len(fired) == 3 and fired[1] == fired[2] >= 8
    assert len(drives) == 2  # the warm-up run and the replayed run


def test_traced_run_replays(catalog):
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="nested"
    )
    result = engine.execute(ALL_EVALUATION_QUERIES["tpch_q17"], tracer=Tracer())
    assert result.subquery_paths == {0: "replayed"}


def _modelled(node: dict) -> dict:
    """A ``span_to_dict`` tree without the host's ``wall_us``."""
    attrs = {k: v for k, v in node.get("attrs", {}).items() if k != "wall_us"}
    children = [_modelled(child) for child in node.get("children", [])]
    return {**node, "attrs": attrs, "children": children}


def traced_trees(engine, sql):
    """The span trees of a traced replay and a traced forced loop, and
    the paths each run took."""
    trees, paths = [], []
    for forced_loop in (False, True):
        tracer = Tracer()
        result, _ = corpus.observe(
            lambda: engine.execute(sql, tracer=tracer), forced_loop
        )
        paths.append(result.subquery_paths)
        tracer.finish()
        trees.append([_modelled(span_to_dict(root)) for root in tracer.roots])
    return trees, paths


@pytest.mark.parametrize("config", sorted(LOOP_CONFIGS))
@pytest.mark.parametrize("name", sorted(ALL_EVALUATION_QUERIES))
def test_traced_replay_matches_the_traced_loop(tpch_small, name, config):
    """Span names, categories, attributes, modelled start and end and
    kernel launches: the replay's iteration spans are the loop's."""
    sql = ALL_EVALUATION_QUERIES[name]
    options = EngineOptions(use_vectorization=False, **LOOP_CONFIGS[config])
    engine = NestGPU(tpch_small, options=options, mode="nested")
    engine.execute(sql)  # planning-time statistics are memoised
    (replayed, looped), paths = traced_trees(engine, sql)
    assert replayed == looped
    if name != "tpch_q4":
        assert paths == [{0: "replayed"}, {0: "loop: forced"}]
        assert "'category': 'iteration'" in repr(replayed)


def test_explain_analyze_names_the_path(catalog):
    from repro.obs.analyze import explain_analyze

    sql = ALL_EVALUATION_QUERIES["tpch_q17"]
    loop = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="nested"
    )
    text = explain_analyze(loop, sql).render()
    assert "path=replayed   iterations=" in text
    text = explain_analyze(NestGPU(catalog, mode="nested"), sql).render()
    assert "path=vectorized   iterations=" in text


def test_replay_runs_no_body_operator_per_miss(monkeypatch):
    """The body's operators run inside the segmented evaluation, once
    per execution, not once per cache miss as in the loop."""
    from repro.core.runtime import Runtime
    from repro.engine import operators

    catalog = generate_tpch(10)
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="nested"
    )
    sql = ALL_EVALUATION_QUERIES["tpch_q2"]
    engine.execute(sql)
    calls: list = []
    for owner, name in ((operators, "aggregate"), (operators, "join"),
                        (Runtime, "_t_scan")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    result = engine.execute(sql)
    assert result.subquery_paths == {0: "replayed"}
    assert result.cache_misses > 40
    # the outer plan's four joins and the hoisted subtree's two
    assert calls == ["join"] * 6


#: the nested_loop benchmark workload's statements
NESTED_LOOP_MIX = ("tpch_q2", "tpch_q17", "paper_q4v", "paper_q5", "paper_q7",
                   "paper_q8")


def _full_state(outcome) -> dict:
    """Everything an execution leaves: the replay view, every
    ``ExecutionStats`` field, the cache counters and the paths."""
    result = outcome[0]
    return {
        **corpus.replay_view(outcome),
        "stats": dataclasses.asdict(result.stats),
        "cache": (result.cache_hits, result.cache_misses),
        "paths": result.subquery_paths,
    }


def _counting_evaluations(monkeypatch) -> list:
    evaluated: list = []
    init = replay._Body.__init__

    def counting(self, *args):
        evaluated.append(self)
        init(self, *args)

    monkeypatch.setattr(replay._Body, "__init__", counting)
    return evaluated


@pytest.mark.parametrize("config", sorted(LOOP_CONFIGS))
def test_a_warm_session_reuses_each_evaluated_body(catalog, config, monkeypatch):
    """A warm session's next execution of a statement binds the same
    correlated values, so its replayed loops reuse the evaluated body:
    no ``_Body`` is made, and the execution leaves exactly what one that
    evaluates its body afresh leaves."""
    session = EngineSession(catalog, mode="nested", options=EngineOptions(
        use_vectorization=False, **LOOP_CONFIGS[config]))
    evaluated = _counting_evaluations(monkeypatch)
    replayed = 0
    for name in NESTED_LOOP_MIX:
        sql = ALL_EVALUATION_QUERIES[name]
        session.execute(sql)  # plan cached, columns resident
        with monkeypatch.context() as fresh_body:
            fresh_body.setattr(replay._Body, "evaluates", lambda *args: False)
            fresh = corpus.observe(lambda: session.execute(sql))
        before = len(evaluated)
        reused = corpus.observe(lambda: session.execute(sql))
        assert len(evaluated) == before, name
        assert _full_state(reused) == _full_state(fresh), name
        replayed += list(fresh[0].subquery_paths.values()).count("replayed")
    assert replayed >= len(NESTED_LOOP_MIX)


def test_new_data_or_new_values_evaluate_the_body_again(monkeypatch):
    """A body is reused only for correlated values equal in every value
    and dtype, and a prepared statement rerun over a replaced table
    evaluates its body again, leaving what a fresh evaluation leaves."""
    catalog = generate_tpch(0.05, use_cache=False)
    options = EngineOptions(use_vectorization=False)
    engine = NestGPU(catalog, options=options, mode="nested")
    prepared = engine.prepare(ALL_EVALUATION_QUERIES["tpch_q2"])
    engine.run_prepared(prepared)
    evaluated = _counting_evaluations(monkeypatch)
    loops: list = []
    replay_loop = replay.replay_loop

    def capturing(rt, sp, corr, *args):
        loops.append((sp, corr))
        return replay_loop(rt, sp, corr, *args)

    monkeypatch.setattr(replay, "replay_loop", capturing)
    engine.run_prepared(prepared)
    assert evaluated == []
    (sp, corr), = loops
    body = sp.spec.replayed
    assert body.evaluates(sp, {q: v.copy() for q, v in corr.items()})
    for q, values in corr.items():
        changed = values.copy()
        changed[-1] += 1
        assert not body.evaluates(sp, {**corr, q: changed})
        assert not body.evaluates(sp, {**corr, q: values.astype(np.float64)})
    catalog.replace(generate_tpch(0.1, use_cache=False).table("part"))
    rerun = corpus.observe(lambda: engine.run_prepared(prepared))
    assert len(evaluated) == 1 and sp.spec.replayed is not body
    with monkeypatch.context() as fresh_body:
        fresh_body.setattr(replay._Body, "evaluates", lambda *args: False)
        fresh = corpus.observe(lambda: engine.run_prepared(prepared))
    assert _full_state(rerun) == _full_state(fresh)


@pytest.mark.parametrize("sql", [
    # the inner SUBQ replays once per iteration of the outer loop
    """SELECT r_col1 FROM r WHERE r_col2 = (
         SELECT min(s_col2) FROM s WHERE s_col1 = r_col1 AND s_col3 = (
           SELECT max(t_col3) FROM t WHERE t_col1 = s_col1))""",
    # EXISTS over a join (outside the semi-join rewrite)
    """SELECT r_col1 FROM r WHERE EXISTS (
         SELECT * FROM s, t
         WHERE s_col1 = r_col1 AND s_col3 = t_col1 AND t_col2 > 3)""",
])
def test_rst_shapes_replay_the_loop(sql):
    from conftest import make_rst_catalog

    engine = NestGPU(
        make_rst_catalog(), options=EngineOptions(use_vectorization=False),
        mode="nested",
    )
    replayed, looped, paths = _both(lambda: engine.execute(sql))
    assert replayed == looped
    assert "replayed" in paths.values()


def test_paper_q5_runs_no_body_operator_per_miss(monkeypatch):
    """``paper_q5``'s ``!=`` body: one spine evaluation per execution,
    no transient scan, and a join count that the misses do not move."""
    from repro.core.runtime import Runtime
    from repro.engine import operators

    catalog = generate_tpch(10)
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="nested"
    )
    sql = ALL_EVALUATION_QUERIES["paper_q5"]
    engine.execute(sql)
    calls: list = []
    for owner, name in ((operators, "join"), (Runtime, "_t_scan")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    result = engine.execute(sql)
    assert result.subquery_paths == {0: "replayed"}
    assert result.cache_misses >= 5
    # the outer plan's four joins and the hoisted subtree's two
    assert calls == ["join"] * 6


# -- non-equality correlations (the replay's own coverage) --------------------

_RANGE_OPS = ("!=", "<", "<=", ">", ">=")
#: where the non-equality sits among the scan's correlated predicates
_POSITIONS = {
    "sole": "s_col2 {op} r_col2",
    "after_equality": "s_col1 = r_col1 AND s_col2 {op} r_col2",
    "before_equality": "s_col2 {op} r_col2 AND s_col1 = r_col1",
}
_BODIES = {
    "min": "SELECT r_col1, (SELECT min(s_col3) FROM s WHERE {corr}) FROM r",
    "max": "SELECT r_col1, (SELECT max(s_col3) FROM s WHERE {corr}) FROM r",
    "count_star": "SELECT r_col1, (SELECT count(*) FROM s WHERE {corr}) FROM r",
    "count_col": "SELECT r_col1, (SELECT count(s_col3) FROM s WHERE {corr}) FROM r",
    "sum": "SELECT r_col1, (SELECT sum(s_col3) FROM s WHERE {corr}) FROM r",
    "avg": "SELECT r_col1, (SELECT avg(s_col3) FROM s WHERE {corr}) FROM r",
    "exists": "SELECT r_col1 FROM r WHERE EXISTS (SELECT * FROM s WHERE {corr})",
    "not_exists": (
        "SELECT r_col1 FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE {corr})"
    ),
    # a hoisted join above the correlated scan
    "min_over_join": (
        "SELECT r_col1, (SELECT min(t_col2) FROM s, t "
        "WHERE {corr} AND s_col3 = t_col3 AND t_col2 > 3) FROM r"
    ),
}


def _nullable_catalog():
    """R's parameters without NULLs; U with NULLs (NaN) in the
    correlated column and in one aggregate argument (``u_col2``), and a
    NULL-free fractional one (``u_col3``) whose sum depends on the order
    it adds its values in."""
    rng = np.random.default_rng(3)
    u_col1 = rng.integers(0, 12, size=300).astype(np.float64)
    u_col2 = rng.integers(0, 50, size=300).astype(np.float64)
    u_col3 = rng.random(300) * 1e3
    u_col1[rng.random(300) < 0.2] = np.nan
    u_col2[rng.random(300) < 0.2] = np.nan
    r = Table.from_pydict(
        "r", [("r_col1", int_type()), ("r_col2", int_type())],
        {"r_col1": rng.integers(0, 14, size=30),
         "r_col2": rng.integers(0, 50, size=30)},
    )
    u = Table.from_pydict(
        "u", [("u_col1", decimal_type()), ("u_col2", decimal_type()),
              ("u_col3", decimal_type())],
        {"u_col1": u_col1, "u_col2": u_col2, "u_col3": u_col3},
    )
    return Catalog([r, u])


def _replays_the_loop(catalog, sql, **config):
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False, **config),
        mode="nested",
    )
    replayed, looped, paths = _both(lambda: engine.execute(sql))
    assert replayed == looped, sql
    assert paths == {0: "replayed"}, sql


@pytest.mark.parametrize("body", sorted(_BODIES))
@pytest.mark.parametrize("position", sorted(_POSITIONS))
@pytest.mark.parametrize("op", _RANGE_OPS)
def test_non_equality_correlations_replay_the_loop(
    rst_catalog, op, position, body
):
    corr = _POSITIONS[position].format(op=op)
    sql = _BODIES[body].format(corr=corr)
    _replays_the_loop(rst_catalog, sql)


@pytest.mark.parametrize("config", sorted(LOOP_CONFIGS))
@pytest.mark.parametrize("body", sorted(_BODIES))
def test_sole_not_equal_replays_the_loop_in_every_config(
    rst_catalog, body, config
):
    sql = _BODIES[body].format(corr="s_col1 != r_col1")
    _replays_the_loop(rst_catalog, sql, **LOOP_CONFIGS[config])


@pytest.mark.parametrize("body", sorted(_BODIES))
def test_disjunctive_correlation_replays_the_loop(rst_catalog, body):
    sql = _BODIES[body].format(corr="(s_col1 = r_col1 OR s_col2 < r_col2)")
    _replays_the_loop(rst_catalog, sql)


@pytest.mark.parametrize("arg", ["u_col2", "u_col3"])
@pytest.mark.parametrize("agg", ["min", "max", "count", "sum", "avg"])
@pytest.mark.parametrize("op", _RANGE_OPS)
def test_nulls_replay_the_loop(op, agg, arg):
    sql = (
        f"SELECT r_col1, (SELECT {agg}({arg}) FROM u "
        f"WHERE u_col1 {op} r_col1) FROM r"
    )
    _replays_the_loop(_nullable_catalog(), sql)


def test_vectorized_path_did_not_widen(rst_catalog):
    """Every shape above keeps the vectorised path's refusal, so every
    configuration keeps its modelled path."""
    engine = NestGPU(rst_catalog, mode="nested")
    corrs = [
        _POSITIONS[position].format(op=op)
        for op in _RANGE_OPS for position in _POSITIONS
    ] + ["(s_col1 = r_col1 OR s_col2 < r_col2)"]
    for corr in corrs:
        for body in _BODIES.values():
            sql = body.format(corr=corr)
            (spec,) = engine.prepare(sql, mode="nested").program.specs
            info = mark_invariants(spec.plan)
            assert vectorize.refusal(
                spec.plan, info, spec.descriptor.kind
            ) == "non-equality correlation", sql
            assert engine.execute(sql).subquery_paths == {0: "replayed"}, sql


@pytest.mark.parametrize("node, sql", [
    ("Filter", "SELECT r_col1, (SELECT min(s_col2) FROM s, t "
               "WHERE s_col3 = t_col1 AND s_col1 != r_col1 "
               "AND s_col2 + t_col2 > r_col2) FROM r"),
    ("Aggregate", "SELECT r_col1, (SELECT max(s_col2 - r_col2) FROM s "
                  "WHERE s_col1 != r_col1) FROM r"),
])
def test_correlation_above_a_whole_base_scan_keeps_the_loop(
    rst_catalog, node, sql
):
    """Over a scan whose first correlated predicate is not ``col = $p``
    only the scan may read a parameter; after an equality the same
    bodies replay."""
    engine = NestGPU(
        rst_catalog, options=EngineOptions(use_vectorization=False),
        mode="nested",
    )
    assert engine.execute(sql).subquery_paths == {
        0: f"loop: correlated {node} over a whole-base scan"
    }
    sql = sql.replace("s_col1 != r_col1", "s_col1 = r_col1")
    assert engine.execute(sql).subquery_paths == {0: "replayed"}
