"""Sharded engine: bit-identity at shards=1, row correctness at N>1,
cost-driven broadcast/shuffle choice, exchange reuse, session wiring."""

from __future__ import annotations

import copy
import hashlib
import math

import pytest
from conftest import make_rst_catalog

from repro.core import NestGPU, ShardedEngine, generate_drive_program
from repro.core.executor import preload_columns
from repro.core.sharded import choose_placement, split_tail
from repro.gpu import DeviceSpec
from repro.gpu.spec import InterconnectSpec, LinkSpec
from repro.obs import MetricsRegistry
from repro.plan.nodes import Scan
from repro.serve import EngineSession
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

RST_SQL = (
    "SELECT r_col1, r_col2 FROM r WHERE r_col2 = "
    "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1)"
)
GLACIAL = InterconnectSpec(
    name="glacial",
    default_link=LinkSpec(bytes_per_ns=0.001, latency_ns=5e7),
)

# The 8 paper queries at sf 0.5 on one standing session per (shards,
# interconnect), each run cold then warm, in sorted query order.  Per
# run: query, strategy, a digest of the rows, repr(total_ns),
# repr(makespan_ns) and the run's per-pair interconnect bytes.  A change
# to sharded execution that claims bit-identity reproduces it exactly.
SHARD_PIN = {
    (2, "pcie"): [
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "376890.45247541886", "188445.22623770943", {}),
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "358753.7858087522", "179376.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "358753.7858087522", "179376.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "358753.7858087522", "179376.8929043761", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "380907.1191420855", "190453.55957104274", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "380073.7858087522", "190036.8929043761", {}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "450045.74920584465", "227770.57938958672",
         {"0->1": 30532, "1->0": 30743}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "409476.91587251134", "207486.16272292007", {"1->0": 333}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "262446.8254470018", "131223.4127235009", {}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "262446.8254470018", "131223.4127235009", {}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "169390.6424823438", "87305.8691211742",
         {"0->1": 35660, "1->0": 34900}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "121805.64248234381", "63513.80536116961", {}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "409476.91587251134", "207486.16272292007", {"1->0": 333}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "409476.91587251134", "207486.16272292007", {"1->0": 333}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "177205.56890288496", "98572.49284045836", {"1->0": 483}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "162396.56890288496", "91167.99284045836", {"1->0": 483}),
    ],
    (2, "nvlink"): [
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "376890.45247541886", "188445.22623770943", {}),
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "358753.7858087522", "179376.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "358753.7858087522", "179376.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "358753.7858087522", "179376.8929043761", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "380907.1191420855", "190453.55957104274", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "380073.7858087522", "190036.8929043761", {}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "425790.74920584465", "215643.07938958672",
         {"0->1": 30532, "1->0": 30743}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "407010.31587251136", "206252.86272292008", {"1->0": 333}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "262446.8254470018", "131223.4127235009", {}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "262446.8254470018", "131223.4127235009", {}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "145678.6424823438", "75449.8691211742",
         {"0->1": 35660, "1->0": 34900}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "121805.64248234381", "63513.80536116961", {}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "407010.31587251136", "206252.86272292008", {"1->0": 333}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "407010.31587251136", "206252.86272292008", {"1->0": 333}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "174708.96890288495", "97324.19284045836", {"1->0": 483}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "159899.96890288495", "89919.69284045836", {"1->0": 483}),
    ],
    (4, "pcie"): [
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "747234.238284171", "186808.55957104274", {}),
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "716627.5716175043", "179156.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "716627.5716175043", "179156.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "716627.5716175043", "179156.8929043761", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "760100.9049508377", "190025.22623770943", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "759267.5716175043", "189816.8929043761", {}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "898662.2108920477", "244027.94694361964",
         {"0->1": 7290, "0->2": 7854, "0->3": 7396, "1->0": 8656, "1->2": 8550,
          "1->3": 6700, "2->0": 7380, "2->1": 7870, "2->3": 7976, "3->0": 6959,
          "3->1": 8624, "3->2": 6578}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "750453.8775587144", "207050.25761158712", {"3->0": 333}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "524013.6508940035", "131003.41272350088", {}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "524013.6508940035", "131003.41272350088", {}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "393770.56344504596", "102588.56575838831",
         {"0->1": 8560, "0->2": 8400, "0->3": 8980, "1->0": 9560, "1->2": 9260,
          "1->3": 8160, "2->0": 8320, "2->1": 9120, "2->3": 9000, "3->0": 7900,
          "3->1": 9820, "3->2": 8180}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "237510.56344504593", "63295.70024983665", {}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "750453.8775587144", "207050.25761158712", {"3->0": 333}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "750453.8775587144", "207050.25761158712", {"3->0": 333}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "334929.84191554645", "102453.92384045836",
         {"1->0": 230, "2->0": 345, "3->0": 253}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "308186.84191554645", "95768.17384045836",
         {"1->0": 230, "2->0": 345, "3->0": 253}),
    ],
    (4, "nvlink"): [
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "747234.238284171", "186808.55957104274", {}),
        ("paper_q4v", "broadcast", "4f53cda18c2baa0c",
         "716627.5716175043", "179156.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "716627.5716175043", "179156.8929043761", {}),
        ("paper_q5", "broadcast", "4f53cda18c2baa0c",
         "716627.5716175043", "179156.8929043761", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "760100.9049508377", "190025.22623770943", {}),
        ("paper_q6", "broadcast", "4f53cda18c2baa0c",
         "759267.5716175043", "189816.8929043761", {}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "820295.6108920478", "223874.44694361964",
         {"0->1": 7290, "0->2": 7854, "0->3": 7396, "1->0": 8656, "1->2": 8550,
          "1->3": 6700, "2->0": 7380, "2->1": 7870, "2->3": 7976, "3->0": 6959,
          "3->1": 8624, "3->2": 6578}),
        ("paper_q7", "shuffle", "c2c7854ca4d94412",
         "747987.2775587144", "205816.95761158713", {"3->0": 333}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "524013.6508940035", "131003.41272350088", {}),
        ("paper_q8", "broadcast", "4f53cda18c2baa0c",
         "524013.6508940035", "131003.41272350088", {}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "315118.56344504596", "82740.56575838831",
         {"0->1": 8560, "0->2": 8400, "0->3": 8980, "1->0": 9560, "1->2": 9260,
          "1->3": 8160, "2->0": 8320, "2->1": 9120, "2->3": 9000, "3->0": 7900,
          "3->1": 9820, "3->2": 8180}),
        ("tpch_q17", "shuffle", "9be21840597fb5d5",
         "237510.56344504593", "63295.70024983665", {}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "747987.2775587144", "205816.95761158713", {"3->0": 333}),
        ("tpch_q2", "shuffle", "c2c7854ca4d94412",
         "747987.2775587144", "205816.95761158713", {"3->0": 333}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "327564.2419155465", "98771.12384045836",
         {"1->0": 230, "2->0": 345, "3->0": 253}),
        ("tpch_q4", "scatter", "72ad0823bbec0055",
         "300821.2419155465", "92085.37384045836",
         {"1->0": 230, "2->0": 345, "3->0": 253}),
    ],
}



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


@pytest.fixture(scope="module")
def tpch_half():
    return generate_tpch(0.5)


@pytest.mark.parametrize("shape", list(SHARD_PIN), ids=str)
def test_shard_pin(tpch_half, shape):
    shards, interconnect = shape
    runs = []
    with EngineSession(
        tpch_half, shards=shards, interconnect=interconnect
    ) as session:
        for name in sorted(ALL_EVALUATION_QUERIES):
            for _cold_then_warm in range(2):
                result = session.execute(ALL_EVALUATION_QUERIES[name])
                report = result.group_report
                runs.append((
                    name,
                    report["strategy"],
                    hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16],
                    repr(result.stats.total_ns),
                    repr(result.makespan_ns),
                    report["pair_bytes"],
                ))
    assert runs == SHARD_PIN[shape]


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
    assert prepared_fast.placement.strategy == "shuffle"

    slow = ShardedEngine(
        make_rst_catalog(n_s=20000), shards=4, interconnect=GLACIAL,
    )
    prepared_slow = slow.prepare(sql)
    assert prepared_slow.placement.strategy == "broadcast"

    # both strategies produce the solo rows
    solo = NestGPU(make_rst_catalog(n_s=20000)).execute(sql)
    assert canon(fast.run_prepared(prepared_fast).rows) == canon(solo.rows)
    assert canon(slow.run_prepared(prepared_slow).rows) == canon(solo.rows)


def test_placement_function_reproduces_the_interconnect_flip():
    """The costing is a pure function of the body and the group: it
    makes the engine's two choices above, and registers no form and
    renames no scan on the way."""
    catalog = make_rst_catalog(n_s=20000)
    body, _ = split_tail(copy.deepcopy(NestGPU(catalog).prepare(RST_SQL).plan))
    specs = generate_drive_program(None, body, fetch_result=False).specs

    def scan_tables() -> list[str]:
        plans = [body, *(spec.plan for spec in specs)]
        return [n.table for p in plans for n in p.walk() if isinstance(n, Scan)]

    tables = scan_tables()
    chosen = {}
    for fabric in (InterconnectSpec.nvswitch(), GLACIAL):
        decision, forms = choose_placement(
            body, specs, catalog, DeviceSpec.v100(), fabric, 4
        )
        engine = ShardedEngine(catalog, shards=4, interconnect=fabric)
        assert engine.prepare(RST_SQL).placement.decision == decision
        chosen[fabric.name] = (
            decision["chosen"], [(scan.table, key) for scan, key in forms]
        )
    assert chosen == {
        "nvswitch": ("shuffle", [("r", "r_col1"), ("s", "s_col1")]),
        "glacial": ("broadcast", [("r", None)]),
    }
    assert scan_tables() == tables
    assert all("##" not in table.name for table in catalog)


def test_runs_leave_the_placement_as_planned():
    """Each run reports its own gather step; the cached placement keeps
    the planned exchanges and a decision with public keys only."""
    engine = ShardedEngine(
        make_rst_catalog(n_s=20000), shards=4,
        interconnect=InterconnectSpec.nvswitch(),
    )
    prepared = engine.prepare(RST_SQL)
    placement = prepared.placement
    planned = list(placement.exchanges)
    assert [step.kind for step in planned] == ["repartition"] * 2
    assert not any(key.startswith("_") for key in placement.decision)
    for _ in range(2):
        report = engine.run_prepared(prepared).group_report
        assert placement.exchanges == planned
        assert [step["kind"] for step in report["exchanges"]] == [
            "repartition", "repartition", "gather"
        ]
        assert report["decision"] == placement.decision


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
    assert prepared.placement.strategy == "coordinator"
    solo = NestGPU(rst_catalog).execute(sql)
    assert canon(engine.run_prepared(prepared).rows) == canon(solo.rows)


def test_traced_coordinator_run_leaves_shard_profiling_off(rst_catalog):
    """A traced coordinator query profiles shard 0 per node for that run
    only; a later untraced scatter body on shard 0 does not profile."""
    from repro.obs import Tracer

    engine = ShardedEngine(rst_catalog, shards=2)
    coordinator = engine.prepare(
        "SELECT a FROM (SELECT r_col1 AS a FROM r) d WHERE a > 3"
    )
    assert coordinator.placement.strategy == "coordinator"
    engine.run_prepared(coordinator, tracer=Tracer())
    assert engine.shard_states[0].profile_node_ns is None
    body = engine.prepare(RST_SQL)
    assert body.placement.strategy != "coordinator"
    engine.run_prepared(body)
    assert engine.shard_states[0].profile_node_ns is None


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

        # admission reads the widest shard's demand: not shard 0's, the
        # narrowest one's or the group total, and below one device's
        widest = []
        with EngineSession(tpch_small) as one:
            for name in ("tpch_q17", "tpch_q2"):
                query = ALL_EVALUATION_QUERIES[name]
                prepared, _ = session.lookup_or_prepare(query, None, ())
                per_shard = [
                    sum(
                        ctx.catalog.table(table).column(column).nbytes
                        for table, column in preload_columns(
                            ctx.catalog, prepared.program
                        )
                    )
                    for ctx in session.states
                ]
                assert len(per_shard) == 4
                assert session.working_set_bytes(prepared) == max(per_shard)
                assert min(per_shard) < max(per_shard) < sum(per_shard)
                solo_bytes = one.working_set_bytes(
                    one.lookup_or_prepare(query)[0]
                )
                assert max(per_shard) < solo_bytes
                widest.append(per_shard.index(max(per_shard)))
        # Q17's widest shard is the coordinator, Q2's is another one
        assert widest[0] == 0 and widest[1] != 0


def test_sharded_session_stats_sum_the_shards():
    """The top-level standing state of a group is the sum over its
    devices, the same numbers its per-device block reports."""
    with EngineSession(generate_tpch(0.05), shards=2) as session:
        session.execute(ALL_EVALUATION_QUERIES["tpch_q17"])
        stats = session.stats()
    per_device = stats["sharded"]["per_device"]
    assert stats["resident_columns"] == sum(
        d["resident_columns"] for d in per_device
    ) > 0
    assert stats["resident_bytes"] == sum(
        d["resident_bytes"] for d in per_device
    ) > 0
    assert stats["device_in_use_bytes"] == sum(
        d["in_use_bytes"] for d in per_device
    )
    assert sum(stats["pool_high_water"].values()) > 0


def test_per_query_tracer_sees_every_shard():
    """``run(..., tracer=)`` (a traced ticket, net ``EXECUTE trace``)
    records the engine's operator and subquery spans on a group too."""
    from repro.obs import Tracer

    sql = ALL_EVALUATION_QUERIES["tpch_q17"]
    with EngineSession(generate_tpch(0.05), shards=2) as session:
        prepared, _ = session.lookup_or_prepare(sql)
        tracer = Tracer()
        session.run(prepared, tracer=tracer)
    tracer.finish()
    spans = [span for root in tracer.roots for span in root.walk()]
    shard_spans = [span for span in spans if span.category == "shard"]
    assert len(shard_spans) == 2
    for shard in shard_spans:
        inner = list(shard.walk())
        assert any(span.category == "operator" for span in inner)
        assert any(span.category == "subquery" for span in inner)


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
