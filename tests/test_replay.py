"""The replayed SUBQ loop charges exactly what the loop charges.

Each statement runs twice in one process: once with the replay
(``repro.core.replay``) and once with the per-iteration loop forced by
patching the coverage predicate.  Rows, the modelled clock, the launch
sequence, device memory, every per-node booking and every loop counter
must be equal, not close.
"""

import dataclasses

import pytest

from repro.core import NestGPU, replay
from repro.core.subquery import AdaptiveSwitch
from repro.engine import EngineOptions
from repro.errors import ReproError
from repro.fuzz.generator import generate_query
from repro.fuzz.runner import DEFAULT_SCALE
from repro.gpu import Device
from repro.obs import Tracer
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


def _observe(run, monkeypatch, forced_loop: bool) -> tuple[dict, dict]:
    launches: list = []
    charge = Device.launch

    def recording_launch(self, tag, elements, work=1.0):
        launches.append((tag, int(elements), float(work)))
        return charge(self, tag, elements, work)

    with monkeypatch.context() as patch:
        patch.setattr(Device, "launch", recording_launch)
        if forced_loop:
            patch.setattr(replay, "refusal", lambda sp: "forced")
        result = run()
    stats = result.stats
    return {
        "rows": repr(result.rows),  # NaN (NULL) never equals itself
        "total_ns": stats.total_ns,
        "launches": launches,
        "launches_by_tag": stats.launches_by_tag,
        "peak_device_bytes": stats.peak_device_bytes,
        "malloc_calls": stats.malloc_calls,
        "node_times_ns": result.node_times_ns,
        "node_calls": result.node_calls,
        "node_launches": result.node_launches,
        "node_output_rows": result.node_output_rows,
        "subquery_iterations": result.subquery_iterations,
        "subquery_cache": result.subquery_cache,
        "index_probes": result.index_probes,
        "pool_restores": result.pool_restores,
        "adaptive_switch": result.adaptive_switch,
        "abandoned_ms": result.abandoned_ms,
    }, result.subquery_paths


def _both(run, monkeypatch):
    run()  # planning-time statistics are memoised by the first run
    replayed, paths = _observe(run, monkeypatch, forced_loop=False)
    looped, loop_paths = _observe(run, monkeypatch, forced_loop=True)
    assert all(path == "loop: forced" for path in loop_paths.values()
               if path.startswith("loop"))
    return replayed, looped, paths


@pytest.mark.parametrize("config", sorted(LOOP_CONFIGS))
@pytest.mark.parametrize("name", sorted(ALL_EVALUATION_QUERIES))
def test_paper_queries_replay_the_loop(catalog, monkeypatch, name, config):
    options = EngineOptions(use_vectorization=False, **LOOP_CONFIGS[config])
    sql = ALL_EVALUATION_QUERIES[name]
    engine = NestGPU(catalog, options=options, mode="nested")
    replayed, looped, paths = _both(lambda: engine.execute(sql), monkeypatch)
    assert replayed == looped
    if name == "paper_q5":
        assert paths == {0: "loop: non-equality correlation"}
    elif name != "tpch_q4":
        assert paths == {0: "replayed"}


def test_fuzz_statements_replay_the_loop(monkeypatch):
    catalog = generate_tpch(DEFAULT_SCALE)
    options = EngineOptions(use_vectorization=False)

    def outcome(engine, sql, forced_loop):
        try:
            return _observe(lambda: engine.execute(sql), monkeypatch, forced_loop)
        except ReproError as exc:  # e.g. an unnester refusal: both alike
            return type(exc).__name__, {}

    replayed_any = 0
    for index in range(100):
        sql = generate_query(catalog, 7, index).sql
        engine = NestGPU(catalog, options=options, mode="nested")
        outcome(engine, sql, False)  # planning-time statistics memoised
        replayed, paths = outcome(engine, sql, False)
        looped, _ = outcome(engine, sql, True)
        assert replayed == looped, sql
        replayed_any += "replayed" in paths.values()
    assert replayed_any >= 10


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
    replayed, looped, paths = _both(
        lambda: engine.run_prepared(prepared), monkeypatch
    )
    assert replayed == looped
    assert replayed["adaptive_switch"] and paths == {}
    assert len(fired) == 3 and fired[1] == fired[2] >= 8
    assert len(drives) == 2  # the warm-up run and the replayed run


def test_traced_run_keeps_the_loop(catalog):
    engine = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="nested"
    )
    result = engine.execute(ALL_EVALUATION_QUERIES["tpch_q17"], tracer=Tracer())
    assert result.subquery_paths == {0: "loop: traced"}


def test_explain_analyze_names_the_path(catalog):
    from repro.obs.analyze import explain_analyze

    sql = ALL_EVALUATION_QUERIES["tpch_q17"]
    loop = NestGPU(
        catalog, options=EngineOptions(use_vectorization=False), mode="nested"
    )
    text = explain_analyze(loop, sql).render()
    assert "path=loop: traced   iterations=" in text
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
def test_rst_shapes_replay_the_loop(monkeypatch, sql):
    from conftest import make_rst_catalog

    engine = NestGPU(
        make_rst_catalog(), options=EngineOptions(use_vectorization=False),
        mode="nested",
    )
    replayed, looped, paths = _both(lambda: engine.execute(sql), monkeypatch)
    assert replayed == looped
    assert "replayed" in paths.values()
