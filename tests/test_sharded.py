"""Sharded engine: bit-identity at shards=1, row correctness at N>1,
cost-driven broadcast/shuffle choice, exchange reuse, session wiring."""

from __future__ import annotations

import math

import pytest
from conftest import make_rst_catalog

from repro.core import NestGPU, ShardedEngine
from repro.gpu.spec import InterconnectSpec, LinkSpec
from repro.obs import MetricsRegistry
from repro.serve import EngineSession
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

RST_SQL = (
    "SELECT r_col1, r_col2 FROM r WHERE r_col2 = "
    "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1)"
)


def canon(rows):
    """Order-insensitive, NaN-safe row multiset for cross-shard compare."""
    def norm(value):
        if isinstance(value, float):
            return "nan" if math.isnan(value) else f"{value:.6f}"
        return repr(value)

    return sorted(tuple(norm(v) for v in row) for row in rows)


# -- shards=1 bit-identity pins ----------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_EVALUATION_QUERIES))
def test_shards_one_is_bit_identical(tpch_small, name):
    """A group of one IS the solo engine: same rows AND the same
    modelled clock, bit for bit, on every paper query."""
    sql = ALL_EVALUATION_QUERIES[name]
    solo = NestGPU(tpch_small).execute(sql)
    sharded = ShardedEngine(tpch_small, shards=1).execute(sql)
    assert sharded.rows == solo.rows
    assert repr(sharded.stats.total_ns) == repr(solo.stats.total_ns)
    assert sharded.shards == 1
    assert sharded.group_report is None


# -- multi-shard row correctness ---------------------------------------


@pytest.mark.parametrize("shards", (2, 4))
@pytest.mark.parametrize("name", sorted(ALL_EVALUATION_QUERIES))
def test_multi_shard_rows_match_solo(tpch_small, shards, name):
    sql = ALL_EVALUATION_QUERIES[name]
    solo = NestGPU(tpch_small).execute(sql)
    engine = ShardedEngine(
        tpch_small, shards=shards, interconnect=InterconnectSpec.nvlink()
    )
    result = engine.execute(sql)
    assert canon(result.rows) == canon(solo.rows)
    assert result.shards == shards
    report = result.group_report
    assert report is not None
    assert len(report["devices"]) == shards
    # makespan = slowest body clock + the coordinator's gather/tail:
    # at least the slowest shard, at most fully-serialised execution
    assert result.makespan_ns >= max(report["body_end_ns"])
    assert result.makespan_ns <= sum(d["total_ns"] for d in report["devices"])


def test_rst_multi_shard_rows(rst_catalog):
    solo = NestGPU(rst_catalog).execute(RST_SQL)
    for shards in (2, 3, 4):
        result = ShardedEngine(rst_catalog, shards=shards).execute(RST_SQL)
        assert canon(result.rows) == canon(solo.rows), f"shards={shards}"


# -- strategy choice ----------------------------------------------------


def test_interconnect_flips_broadcast_to_shuffle():
    """The same correlated subquery picks shuffle on a fast fabric and
    broadcast on a glacial one — the exchange choice is cost-driven,
    not hard-coded."""
    sql = RST_SQL
    fast = ShardedEngine(
        make_rst_catalog(n_s=20000), shards=4,
        interconnect=InterconnectSpec.nvswitch(),
    )
    prepared_fast = fast.prepare(sql)
    assert prepared_fast.strategy == "shuffle"

    glacial = InterconnectSpec(
        name="glacial",
        default_link=LinkSpec(bytes_per_ns=0.001, latency_ns=5e7),
    )
    slow = ShardedEngine(
        make_rst_catalog(n_s=20000), shards=4, interconnect=glacial,
    )
    prepared_slow = slow.prepare(sql)
    assert prepared_slow.strategy == "broadcast"

    # both strategies produce the solo rows
    solo = NestGPU(make_rst_catalog(n_s=20000)).execute(sql)
    assert canon(fast.run_prepared(prepared_fast).rows) == canon(solo.rows)
    assert canon(slow.run_prepared(prepared_slow).rows) == canon(solo.rows)


def test_explain_surfaces_group_and_strategy():
    engine = ShardedEngine(
        make_rst_catalog(n_s=20000), shards=4,
        interconnect=InterconnectSpec.nvswitch(),
    )
    text = engine.explain(RST_SQL)
    assert "device group: 4 x tesla-v100 over nvswitch" in text
    assert "shard strategy: shuffle" in text
    assert "broadcast est:" in text and "shuffle est:" in text
    assert "exchanges:" in text


def test_derived_table_falls_back_to_coordinator(rst_catalog):
    sql = "SELECT a FROM (SELECT r_col1 AS a FROM r) d WHERE a > 3"
    engine = ShardedEngine(rst_catalog, shards=4)
    prepared = engine.prepare(sql)
    assert prepared.strategy == "coordinator"
    solo = NestGPU(rst_catalog).execute(sql)
    assert canon(engine.run_prepared(prepared).rows) == canon(solo.rows)


# -- exchange reuse ------------------------------------------------------


def test_repeat_run_skips_repartition_exchanges():
    """Partitioned forms stay resident: the second run of the same
    prepared query moves only gather traffic (everything lands on the
    coordinator, shard 0), never a repeated repartition."""
    engine = ShardedEngine(
        make_rst_catalog(n_s=20000), shards=4,
        interconnect=InterconnectSpec.nvswitch(),
    )
    prepared = engine.prepare(RST_SQL)
    first = engine.run_prepared(prepared)
    second = engine.run_prepared(prepared)
    first_pairs = first.group_report["pair_bytes"]
    second_pairs = second.group_report["pair_bytes"]
    assert sum(second_pairs.values()) < sum(first_pairs.values())
    assert all(pair.endswith("->0") for pair in second_pairs)
    # repartition traffic reaches non-coordinator shards on first run
    assert any(not pair.endswith("->0") for pair in first_pairs)
    assert canon(first.rows) == canon(second.rows)


# -- session integration -------------------------------------------------


def test_session_shards_one_bit_identity(tpch_small):
    sql = ALL_EVALUATION_QUERIES["tpch_q2"]
    solo = NestGPU(tpch_small).execute(sql)
    with EngineSession(tpch_small, shards=1) as session:
        result = session.execute(sql)
    assert result.rows == solo.rows
    assert repr(result.stats.total_ns) == repr(solo.stats.total_ns)


def test_session_sharded_run_and_plan_cache(tpch_small):
    sql = ALL_EVALUATION_QUERIES["tpch_q17"]
    solo = NestGPU(tpch_small).execute(sql)
    with EngineSession(
        tpch_small, shards=4, interconnect="nvlink"
    ) as session:
        first = session.execute(sql)
        assert first.plan_cache_hit is False
        second = session.execute(sql)
        assert second.plan_cache_hit is True
        assert canon(first.rows) == canon(solo.rows)
        assert canon(second.rows) == canon(solo.rows)
        stats = session.stats()
        assert stats["shards"] == 4
        assert stats["sharded"]["interconnect"] == "nvlink"
        assert len(stats["sharded"]["per_device"]) == 4

        prepared, _ = session.lookup_or_prepare(sql, None, ())
        per_shard = prepared.per_shard_bytes
        assert per_shard and len(per_shard) == 4
        assert session.working_set_bytes(prepared) == max(per_shard)


def test_sharded_session_records_group_metrics():
    """A sharded session with a registry counts each query once, by
    strategy, and its per-device counters add up to the group reports."""
    names = ("paper_q8", "tpch_q2", "tpch_q4", "tpch_q17")
    metrics = MetricsRegistry()
    reports = []
    with EngineSession(
        generate_tpch(0.05, use_cache=False), shards=2, interconnect="nvlink",
        metrics=metrics,
    ) as session:
        for name in names:
            reports.append(
                session.execute(ALL_EVALUATION_QUERIES[name]).group_report
            )
    snapshot = metrics.to_dict()
    counters = snapshot["counters"]
    assert counters["shard.queries"] == counters["queries.total"] == 4
    assert sum(
        value for key, value in counters.items()
        if key.startswith("shard.strategy.")
    ) == 4
    assert (
        counters["device.0.kernel_launches"]
        + counters["device.1.kernel_launches"]
    ) == sum(
        device["kernel_launches"]
        for report in reports for device in report["devices"]
    )
    assert counters["interconnect.bytes"] == sum(
        sum(report["pair_bytes"].values()) for report in reports
    )
    assert len(snapshot["queries"]) == len(names)


# -- engines sharing one catalog -----------------------------------------
# Only a data change moves Catalog.version; planning or running a
# sharded query on a shared catalog must not reset its neighbours.


def test_sharded_session_leaves_solo_session_warm():
    sql = ALL_EVALUATION_QUERIES["tpch_q17"]
    catalog = generate_tpch(0.05, use_cache=False)
    with EngineSession(catalog) as solo, \
            EngineSession(catalog, shards=2) as sharded:
        solo.execute(sql)
        warm = solo.execute(sql)
        sharded.execute(sql)
        after = solo.execute(sql)
        assert after.plan_cache_hit is True
        assert after.preload_ns == 0.0
        assert solo.plan_cache.invalidations == 0
        assert repr(after.stats.total_ns) == repr(warm.stats.total_ns)


def test_prepared_plan_survives_a_wider_engine_on_the_same_catalog():
    sql = ALL_EVALUATION_QUERIES["tpch_q17"]
    catalog = generate_tpch(0.05, use_cache=False)
    narrow = ShardedEngine(catalog, shards=2)
    prepared = narrow.prepare(sql)
    ShardedEngine(catalog, shards=4).execute(sql)
    result = narrow.run_prepared(prepared)
    assert canon(result.rows) == canon(NestGPU(catalog).execute(sql).rows)


def test_sharded_engine_validates_shards():
    with pytest.raises(ValueError):
        ShardedEngine(make_rst_catalog(), shards=0)
