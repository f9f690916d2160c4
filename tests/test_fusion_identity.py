"""Fusion bit-identity pins across every execution topology.

Three contracts, all on the paper's 8 evaluation queries at SF 0.1:

* **rows** — fusion-on row sets equal fusion-off row sets under solo
  execution, the real worker pool (AsyncEngine, 4 workers) and the
  sharded engine (2 shards).  NaN is the engines' NULL and compares
  equal to itself here.
* **baseline** — with fusion off, modelled totals and launch counts
  are bit-identical to the pre-fusion engine (the pinned floats below
  were captured before the fusion subsystem landed).
* **payoff** — forcing fusion on cuts total launches across the mix by
  at least 30% and lowers every query's modelled time.
"""

import math

import pytest

from repro.core import NestGPU, ShardedEngine
from repro.engine import EngineOptions
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

# (modelled total_ns, kernel launches) per query: solo engine, SF 0.1,
# fusion off — captured on the pre-fusion engine and pinned exactly
BASELINE = {
    "tpch_q2": (206460.59872350088, 38),
    "tpch_q4": (96905.28237537952, 16),
    "tpch_q17": (65582.34702841712, 12),
    "paper_q4v": (181529.9887235009, 34),
    "paper_q5": (181529.9887235009, 34),
    "paper_q6": (192356.65539016755, 36),
    "paper_q7": (206460.59872350088, 38),
    "paper_q8": (133377.58854262566, 25),
}


@pytest.fixture(scope="module")
def catalog01():
    return generate_tpch(0.1)


def canon_rows(rows):
    """Order-insensitive rows with NaN (the engines' NULL) self-equal."""
    def canon(value):
        if isinstance(value, float) and math.isnan(value):
            return "NaN"
        return value

    return sorted(
        (tuple(canon(v) for v in row) for row in rows), key=repr
    )


def solo(catalog, query, fusion):
    engine = NestGPU(catalog, options=EngineOptions(fusion=fusion))
    return engine.execute(ALL_EVALUATION_QUERIES[query])


class TestFusionOffBaseline:
    """`--fusion off` is the pre-fusion engine, bit for bit."""

    @pytest.mark.parametrize("query", sorted(BASELINE))
    def test_totals_and_launches_match_pre_fusion_pin(self, catalog01, query):
        result = solo(catalog01, query, "off")
        total_ns, launches = BASELINE[query]
        assert repr(result.stats.total_ns) == repr(total_ns)
        assert result.stats.kernel_launches == launches
        assert result.stats.fused_launches == 0


class TestSoloIdentity:
    @pytest.mark.parametrize("query", sorted(BASELINE))
    def test_fused_rows_equal_unfused_rows(self, catalog01, query):
        off = solo(catalog01, query, "off")
        on = solo(catalog01, query, "on")
        assert canon_rows(on.rows) == canon_rows(off.rows)
        assert on.stats.kernel_launches < off.stats.kernel_launches
        assert on.stats.total_ns < off.stats.total_ns
        assert on.stats.fused_launches >= 1

    @pytest.mark.parametrize("query", sorted(BASELINE))
    def test_auto_mode_rows_equal_unfused_rows(self, catalog01, query):
        off = solo(catalog01, query, "off")
        auto = solo(catalog01, query, "auto")
        assert canon_rows(auto.rows) == canon_rows(off.rows)

    def test_mix_launch_reduction_at_least_30_percent(self, catalog01):
        unfused = sum(
            solo(catalog01, q, "off").stats.kernel_launches for q in BASELINE
        )
        fused = sum(
            solo(catalog01, q, "on").stats.kernel_launches for q in BASELINE
        )
        assert fused <= unfused * 0.70


class TestConcurrentIdentity:
    def test_fused_rows_identical_under_4_workers(self, catalog01):
        from repro.serve import AsyncEngine, EngineSession

        expected = {
            q: canon_rows(solo(catalog01, q, "off").rows) for q in BASELINE
        }
        with EngineSession(
            catalog01, options=EngineOptions(fusion="on")
        ) as session:
            engine = AsyncEngine(session, workers=4)
            tickets = {
                q: engine.submit(ALL_EVALUATION_QUERIES[q]) for q in BASELINE
            }
            assert engine.drain(timeout=120.0)
            engine.shutdown(drain=False, timeout=10.0)
        for query, ticket in tickets.items():
            assert ticket.status == "done", f"{query}: {ticket.detail}"
            assert canon_rows(ticket.result.rows) == expected[query], query


class TestShardedIdentity:
    def test_fused_rows_identical_across_2_shards(self, catalog01):
        engine = ShardedEngine(
            catalog01, options=EngineOptions(fusion="on"), shards=2
        )
        for query in sorted(BASELINE):
            expected = canon_rows(solo(catalog01, query, "off").rows)
            got = engine.execute(ALL_EVALUATION_QUERIES[query])
            assert canon_rows(got.rows) == expected, query
