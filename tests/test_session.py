"""EngineSession: solo bit-identity, standing device state, residency."""

from __future__ import annotations

import pytest
from conftest import rows_set

from repro.core import NestGPU
from repro.engine import ColumnResidency
from repro.errors import DeviceMemoryError, PlanError
from repro.gpu import Device, DeviceSpec
from repro.serve import EngineSession, render_param
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

SCALE = 0.1


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


@pytest.fixture()
def session(catalog):
    with EngineSession(catalog) as s:
        yield s


Q4 = ALL_EVALUATION_QUERIES["tpch_q4"]
Q17 = ALL_EVALUATION_QUERIES["tpch_q17"]


class TestSoloBitIdentity:
    """The refactor's contract: the first query of a fresh session is
    bit-identical — rows and modelled total — to the pre-session
    single-query engine."""

    @pytest.mark.parametrize("name", sorted(ALL_EVALUATION_QUERIES))
    @pytest.mark.parametrize("mode", ["auto", "nested"])
    def test_paper_query_identical(self, catalog, name, mode):
        sql = ALL_EVALUATION_QUERIES[name]
        solo = NestGPU(catalog, mode=mode).execute(sql)
        with EngineSession(catalog, mode=mode) as fresh:
            served = fresh.execute(sql)
        assert repr(served.stats.total_ns) == repr(solo.stats.total_ns)
        # repr-compare: NaN is the engines' NULL and NaN != NaN
        assert repr(rows_set(served)) == repr(rows_set(solo))
        assert served.plan_choice == solo.plan_choice
        assert served.stats.kernel_launches == solo.stats.kernel_launches


class TestStandingState:
    def test_pool_high_water_survives_two_executions(self, session):
        session.execute(Q4)
        first = session.pools.high_water()
        assert first["intermediate"] > 0
        in_use_after_first = session.device.memory_in_use
        session.execute(Q4)
        # the reservation is reused, not re-grown: same high water, and
        # the device charge did not double
        assert session.pools.high_water() == first
        assert session.device.memory_in_use == in_use_after_first

    def test_per_query_clock_reset(self, session):
        """Regression: result stats are per query, never cumulative."""
        first = session.execute(Q4)
        second = session.execute(Q4)
        assert second.stats.total_ns > 0
        # a cumulative clock would at least double; amortization makes
        # the warm run strictly cheaper instead
        assert second.stats.total_ns < first.stats.total_ns
        assert second.stats.kernel_launches == first.stats.kernel_launches
        assert rows_set(second) == rows_set(first)

    def test_per_query_peak_bytes_rebased(self, session):
        first = session.execute(Q4)
        second = session.execute(Q4)
        # peak is rebased to the standing footprint each query, so the
        # second peak cannot exceed the first (same query, warm state)
        assert second.stats.peak_device_bytes <= first.stats.peak_device_bytes

    def test_residency_makes_second_preload_free(self, session):
        first = session.execute(Q17)
        assert first.preload_ns > 0
        assert len(session.residency) > 0
        second = session.execute(Q17)
        assert second.preload_ns == 0.0
        assert session.residency.touches > 0

    def test_residency_shared_across_queries(self, session):
        session.execute(Q17)  # loads lineitem + part columns
        transfers_before = session.residency.transfers
        session.execute(
            "SELECT sum(l_extendedprice) FROM lineitem "
            "WHERE l_quantity < 5"
        )
        # both columns were already resident from q17's preload
        assert session.residency.transfers == transfers_before

    def test_close_releases_device(self, catalog):
        session = EngineSession(catalog)
        session.execute(Q4)
        assert session.device.memory_in_use > 0
        session.close()
        assert session.device.memory_in_use == 0
        session.close()  # idempotent
        with pytest.raises(RuntimeError):
            session.run(session.engine.prepare(Q4))

    def test_index_cache_reused_across_queries(self, session):
        sql = (
            "SELECT o_orderkey FROM orders WHERE o_totalprice > "
            "(SELECT avg(l_extendedprice) FROM lineitem "
            "WHERE l_orderkey = o_orderkey)"
        )
        session.execute(sql)
        built = len(session.index_cache)
        assert built > 0
        session.execute(sql)
        assert len(session.index_cache) == built


class TestBadMode:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_unknown_mode_raises_and_caches_nothing(self, catalog, shards):
        with EngineSession(catalog, shards=shards) as session:
            with pytest.raises(PlanError, match="unknown mode"):
                session.execute(Q4, mode="bogus")
            assert len(session.plan_cache) == 0
            assert session.queries_run == 0
            # the session is still usable
            assert session.execute(Q4, mode="nested").num_rows > 0


class TestBadShards:
    @pytest.mark.parametrize("shards", [0, -3])
    def test_non_positive_shards_raise(self, catalog, shards):
        """Regression: the session ran the solo engine silently."""
        with pytest.raises(ValueError, match="shards must be >= 1"):
            EngineSession(catalog, shards=shards)


class TestColumnResidencyEviction:
    def _device(self, capacity: int) -> Device:
        return Device(DeviceSpec.v100().with_memory(capacity))

    def test_lru_evicts_least_recently_used(self):
        residency = ColumnResidency(self._device(100), lru=True)
        residency.ensure(("t", "a"), 40)
        residency.ensure(("t", "b"), 40)
        residency.ensure(("t", "a"), 40)  # refresh a
        residency.ensure(("t", "c"), 40)  # must evict b, not a
        assert ("t", "a") in residency
        assert ("t", "b") not in residency
        assert ("t", "c") in residency
        assert residency.evictions == 1

    def test_load_order_eviction_without_lru(self):
        residency = ColumnResidency(self._device(100), lru=False)
        residency.ensure(("t", "a"), 40)
        residency.ensure(("t", "b"), 40)
        residency.ensure(("t", "a"), 40)  # touch does not refresh
        residency.ensure(("t", "c"), 40)  # evicts a (oldest load)
        assert ("t", "a") not in residency
        assert ("t", "b") in residency

    def test_oversized_column_raises(self):
        residency = ColumnResidency(self._device(100))
        with pytest.raises(DeviceMemoryError):
            residency.ensure(("t", "big"), 200)

    def test_release_all_returns_bytes(self):
        device = self._device(100)
        residency = ColumnResidency(device)
        residency.ensure(("t", "a"), 40)
        residency.release_all()
        assert device.memory_in_use == 0
        assert len(residency) == 0


class TestCatalogInvalidation:
    # both tests mutate their catalog: take a private one, not the
    # process-wide generate_tpch cache entry other modules pin against

    def test_reload_drops_residency_and_indexes(self):
        catalog = generate_tpch(0.05, use_cache=False)
        with EngineSession(catalog) as session:
            session.execute(Q4)
            assert len(session.residency) > 0
            catalog.replace(generate_tpch(0.05).table("orders"))
            session.execute(Q4)
            # standing state derived from old table data was dropped
            assert session.plan_cache.invalidations == 1

    def test_reload_results_stay_correct(self):
        catalog = generate_tpch(0.05, use_cache=False)
        with EngineSession(catalog) as session:
            session.execute(Q4)
            bigger = generate_tpch(0.2)
            for table in list(catalog):
                catalog.replace(bigger.table(table.name))
            served = session.execute(Q4)
        solo = NestGPU(generate_tpch(0.2)).execute(Q4)
        assert rows_set(served) == rows_set(solo)


class TestRenderParam:
    def test_literals(self):
        assert render_param(5) == "5"
        assert render_param(2.5) == "2.5"
        assert render_param(True) == "1"
        assert render_param("MED BOX") == "'MED BOX'"
        assert render_param("it's") == "'it''s'"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            render_param([1, 2])
