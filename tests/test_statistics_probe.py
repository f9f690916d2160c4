"""The distinct-count statistic lives on the table, and the costing
probe reads a session's index cache without ever writing to it.

The recorded numbers below were produced by the parent commit (1535b87)
at sf 2: a change that moves them moved a plan choice input or the
modelled clock.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import CorrelatedIndex, NestGPU
from repro.errors import UnnestingError
from repro.plan import Binder, PlanBuilder
from repro.serve import EngineSession
from repro.sql import parse
from repro.storage import Catalog, Table, int_type
from repro.tpch import ALL_EVALUATION_QUERIES, TPCH_Q17, generate_tpch

Q17_TEMPLATE = TPCH_Q17.replace("'Brand#23'", "$1").replace("'MED BOX'", "$2")

# solo NestGPU(catalog).prepare(sql).predicted_ms (None: unnesting refused)
PARENT_PREDICTED_MS = {
    "paper_q4v": 0.2627018075710428,
    "paper_q5": None,
    "paper_q6": 0.2766957409043761,
    "paper_q7": 0.25360540869412695,
    "paper_q8": 0.24696373139016753,
    "tpch_q17": 0.15060249123949154,
    "tpch_q2": 0.25360540869412695,
    "tpch_q4": 0.1276289068000371,
}

# first execute of the statement in a fresh EngineSession(catalog):
# (stats.total_ns, stats.launches_by_tag)
PARENT_FIRST_RUN = {
    "paper_q4v": (262944.5562377095, {
        "hash_build": 7, "hash_probe": 7, "join_expand": 7, "prefix_sum": 4,
        "scan_and": 2, "scan_compare": 6, "scan_isin": 1, "scatter": 4,
        "segmented_reduce": 1, "sort": 1}),
    "paper_q5": (280431.74681093695, {
        "hash_build": 7, "hash_probe": 7, "join_expand": 7, "prefix_sum": 5,
        "reduce": 1, "scan_and": 2, "scan_compare": 6, "scan_isin": 1,
        "scatter": 5, "sort": 1}),
    "paper_q6": (276938.5295710428, {
        "hash_build": 7, "hash_probe": 7, "join_expand": 7, "prefix_sum": 4,
        "scan_and": 3, "scan_compare": 6, "scan_isin": 2, "scatter": 4,
        "segmented_reduce": 1, "sort": 1}),
    "paper_q7": (254953.4628165765, {
        "hash_build": 7, "hash_probe": 7, "join_expand": 7, "prefix_sum": 4,
        "scan_and": 1, "scan_compare": 5, "scan_isin": 1, "scatter": 4,
        "segmented_reduce": 1, "sort": 1}),
    "paper_q8": (241743.88605683422, {
        "hash_build": 7, "hash_probe": 7, "join_expand": 7, "prefix_sum": 3,
        "scan_and": 2, "scan_compare": 5, "scan_isin": 1, "scatter": 3,
        "segmented_reduce": 1}),
    "tpch_q17": (156258.31383719208, {
        "hash_build": 1, "hash_probe": 1, "index_gather": 1,
        "index_search": 1, "join_expand": 1, "prefix_sum": 2, "reduce": 1,
        "scan_and": 1, "scan_arith": 2, "scan_compare": 3, "scatter": 2,
        "segmented_reduce": 1, "sort": 1}),
    "tpch_q2": (254953.4628165765, {
        "hash_build": 7, "hash_probe": 7, "join_expand": 7, "prefix_sum": 4,
        "scan_and": 1, "scan_compare": 5, "scan_isin": 1, "scatter": 4,
        "segmented_reduce": 1, "sort": 1}),
    "tpch_q4": (127628.90680003712, {
        "group_by": 1, "hash_build": 1, "prefix_sum": 3, "scan_and": 1,
        "scan_compare": 3, "scatter": 3, "segmented_reduce": 1,
        "semi_probe": 1, "sort": 1}),
}


def parent_distinct(data):
    """PlanBuilder._distinct_count as the parent computed it."""
    sample = data if len(data) <= 50_000 else data[:50_000]
    return max(1, len(np.unique(sample)))


# -- the statistic ----------------------------------------------------------


def test_statistic_is_the_parents_number_for_every_tpch_column():
    catalog = generate_tpch(1.0)
    checked = 0
    for table in catalog:
        for column in table.columns:
            assert table.distinct_count(column.name) == parent_distinct(column.data), (
                table.name, column.name)
            checked += 1
    assert checked > 40


def test_statistic_counts_only_the_first_50_000_rows():
    head = np.arange(50_000) % 17
    table = Table.from_pydict(
        "big", [("k", int_type(4)), ("z", int_type(4))],
        {"k": np.concatenate([head, np.arange(1000, 11_000)]),
         "z": np.zeros(60_000, dtype=np.int64)},
    )
    assert table.distinct_count("k") == 17 == parent_distinct(table.column("k").data)
    assert table.distinct_count("z") == 1
    empty = table.take(np.empty(0, dtype=np.int64))
    assert empty.distinct_count("k") == 1  # never 0: it divides


def test_each_column_is_counted_once_per_catalog_not_once_per_builder():
    catalog = generate_tpch(0.5, use_cache=False)  # fresh tables: empty memos
    engines = [NestGPU(catalog), NestGPU(catalog, mode="unnested")]
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        for engine in engines:
            for sql in ALL_EVALUATION_QUERIES.values():
                try:
                    engine.prepare(sql)
                except UnnestingError:  # the refused plan was still built
                    pass
        block = Binder(catalog).bind(parse(ALL_EVALUATION_QUERIES["tpch_q2"]))
        for _ in range(10):
            PlanBuilder(catalog).build(block)
        counted = sum(len(table._distinct) for table in catalog)
        assert counted >= 3
        assert unique.call_count == counted


def test_catalog_replace_brings_the_new_tables_value():
    spec = [("k", int_type(4))]
    catalog = Catalog([Table.from_pydict("t", spec, {"k": [1, 2, 2, 3]})])
    builder = PlanBuilder(catalog)
    assert builder._distinct_count("t", "k") == 3
    catalog.replace(Table.from_pydict("t", spec, {"k": [5, 5, 5, 5, 5]}))
    assert builder._distinct_count("t", "k") == 1
    assert PlanBuilder(catalog)._distinct_count("t", "k") == 1


# -- the probe --------------------------------------------------------------


@pytest.fixture()
def counted_index_builds(monkeypatch):
    original, calls = CorrelatedIndex.build, []

    def counting(device, values):
        calls.append(len(values))
        return original(device, values)

    monkeypatch.setattr(CorrelatedIndex, "build", staticmethod(counting))
    return calls


def test_warm_session_prepare_builds_no_index_and_publishes_none(
    tpch_small, counted_index_builds
):
    session = EngineSession(tpch_small)
    statement = session.prepare_statement(Q17_TEMPLATE)
    statement.execute("Brand#23", "MED BOX")
    assert len(counted_index_builds) == 2  # the cold probe, then the run
    before = dict(session.states[0].index_cache)
    assert len(before) == 1
    del counted_index_builds[:]
    prepared, hit = session.lookup_or_prepare(
        statement.bind("Brand#41", "LG CASE"), None, ()
    )
    assert not hit and prepared.choice == "nested"
    assert counted_index_builds == []
    assert session.states[0].index_cache.keys() == before.keys()
    assert all(session.states[0].index_cache[k] is v for k, v in before.items())
    result = session.run(prepared)
    assert counted_index_builds == []  # the run reuses the session's index
    assert "sort" not in result.stats.launches_by_tag
    session.close()


def test_probe_leaves_a_fresh_sessions_cache_empty(tpch_small, counted_index_builds):
    session = EngineSession(tpch_small)
    session.lookup_or_prepare(ALL_EVALUATION_QUERIES["tpch_q17"], None, ())
    assert counted_index_builds and session.states[0].index_cache == {}
    session.close()


@pytest.mark.parametrize("query", sorted(ALL_EVALUATION_QUERIES))
def test_first_execution_in_a_fresh_session_is_the_parents(tpch_small, query):
    total_ns, launches = PARENT_FIRST_RUN[query]
    session = EngineSession(tpch_small)
    result = session.execute(ALL_EVALUATION_QUERIES[query])
    session.close()
    assert result.stats.total_ns == pytest.approx(total_ns, rel=1e-12)
    assert dict(result.stats.launches_by_tag) == launches


@pytest.mark.parametrize("query", sorted(ALL_EVALUATION_QUERIES))
def test_solo_prediction_is_the_parents(tpch_small, query):
    prepared = NestGPU(tpch_small).prepare(ALL_EVALUATION_QUERIES[query])
    expected = PARENT_PREDICTED_MS[query]
    assert prepared.choice == "nested"
    if expected is None:
        assert prepared.predicted_ms is None
    else:
        assert prepared.predicted_ms == pytest.approx(expected, rel=1e-12)


# -- shared memos under threads ---------------------------------------------


def test_racing_threads_agree_on_the_statistic_and_the_drive_callable():
    """Both memos are published by one store; a race recomputes the same
    value (benign), it never exposes a partial one."""
    import sys
    import threading

    catalog = generate_tpch(0.5, use_cache=False)  # fresh tables: empty memos
    prepared = NestGPU(catalog).prepare(ALL_EVALUATION_QUERIES["tpch_q17"])
    lineitem = catalog.table("lineitem")
    expected = {
        column.name: parent_distinct(column.data) for column in lineitem.columns
    }
    seen, barrier = [], threading.Barrier(8)

    def worker():
        barrier.wait(timeout=30)
        counts = {name: lineitem.distinct_count(name) for name in expected}
        seen.append((counts, prepared.program.drive))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8
    for counts, drive in seen:
        assert counts == expected
        assert callable(drive) and drive.__code__ == prepared.program.drive.__code__
