"""Tests for the sorted correlated-column index."""

import numpy as np
import pytest

from repro.core import CorrelatedIndex, index_pays_off
from repro.gpu import Device, DeviceSpec


@pytest.fixture()
def device():
    return Device(DeviceSpec.v100())


class TestCorrelatedIndex:
    def test_lookup_all_matches(self, device):
        values = np.array([5, 3, 5, 1, 5, 3])
        index = CorrelatedIndex.build(device, values)
        rows = index.lookup(device, 5)
        assert sorted(rows) == [0, 2, 4]

    def test_lookup_missing(self, device):
        index = CorrelatedIndex.build(device, np.array([1, 2, 3]))
        assert len(index.lookup(device, 99)) == 0

    def test_lookup_batch(self, device):
        values = np.array([5, 3, 5, 1])
        index = CorrelatedIndex.build(device, values)
        rows, seg = index.lookup_batch(device, np.array([3, 5, 7]))
        by_seg = {s: sorted(rows[seg == s]) for s in range(3)}
        assert by_seg[0] == [1]
        assert by_seg[1] == [0, 2]
        assert by_seg[2] == []

    def test_batch_matches_loop(self, device):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 20, size=200)
        index = CorrelatedIndex.build(device, values)
        probes = rng.integers(0, 25, size=17)
        rows, seg = index.lookup_batch(device, probes)
        for i, p in enumerate(probes):
            assert sorted(rows[seg == i]) == sorted(index.lookup(device, p))

    def test_build_charges_sort(self, device):
        CorrelatedIndex.build(device, np.arange(100))
        assert device.stats.launches_by_tag.get("sort") == 1

    def test_space_is_two_n(self, device):
        index = CorrelatedIndex.build(device, np.arange(100, dtype=np.int64))
        assert index.nbytes == 2 * 100 * 8

    def test_lookup_charges_search(self, device):
        index = CorrelatedIndex.build(device, np.arange(100))
        before = device.stats.kernel_launches
        index.lookup(device, 4)
        assert device.stats.kernel_launches > before


class TestIndexDecision:
    def test_few_iterations_not_worth(self):
        assert not index_pays_off(table_rows=10_000, iterations=2, min_iterations=8)

    def test_many_iterations_worth(self):
        assert index_pays_off(table_rows=10_000, iterations=500, min_iterations=8)

    def test_tiny_table_not_worth(self):
        assert not index_pays_off(table_rows=1, iterations=1000, min_iterations=8)

    def test_threshold_respected(self):
        assert not index_pays_off(table_rows=10_000, iterations=7, min_iterations=8)

    def test_breakeven_monotone(self):
        # once it pays off, more iterations keep it worthwhile
        worth = [
            index_pays_off(10_000, iters, 8)
            for iters in (8, 64, 512, 4096)
        ]
        assert worth == sorted(worth)


class TestIndexingEndToEnd:
    def _catalog(self):
        """Many outer iterations over a large inner table: the regime
        where Figure 13 shows indexing winning."""
        from conftest import make_rst_catalog

        return make_rst_catalog(seed=11, n_r=400, n_s=20_000)

    def test_index_speeds_up_larger_outer(self):
        from repro.core import NestGPU
        from repro.engine import EngineOptions
        from repro.tpch import queries

        catalog = self._catalog()
        # disable vectorization so the per-iteration path exercises the
        # index; disable caching so iterations are not deduplicated
        base = dict(use_vectorization=False, use_cache=False)
        with_index = NestGPU(
            catalog, options=EngineOptions(**base, use_index=True)
        )
        without = NestGPU(
            catalog, options=EngineOptions(**base, use_index=False)
        )
        sql = queries.PAPER_Q1
        indexed = with_index.execute(sql, mode="nested")
        plain = without.execute(sql, mode="nested")
        assert sorted(map(repr, indexed.rows)) == sorted(map(repr, plain.rows))
        assert indexed.total_ms < plain.total_ms
        assert "index_search" in indexed.stats.launches_by_tag
        assert "index_search" not in plain.stats.launches_by_tag

    def test_index_skipped_when_not_worth_it(self, tpch_small):
        """Few iterations at micro scale: the executor correctly
        declines to sort the inner column (paper Section III-D's
        build-cost-vs-savings judgement)."""
        from repro.core import NestGPU
        from repro.engine import EngineOptions
        from repro.tpch import queries

        db = NestGPU(tpch_small, options=EngineOptions(
            use_vectorization=False, use_cache=False, use_index=True
        ))
        result = db.execute(queries.PAPER_Q7, mode="nested")
        assert "index_search" not in result.stats.launches_by_tag


class TestBaseColumnSort:
    def test_second_engine_reuses_the_tables_sort_on_the_same_clock(
        self, monkeypatch
    ):
        """An unfiltered base column is sorted once per table: a second
        fresh engine charges the index's sort again but sorts nothing."""
        import corpus
        from repro.core import NestGPU
        from repro.gpu import kernels
        from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

        catalog = generate_tpch(2.0, use_cache=False)
        indexed = catalog.table("lineitem").column("l_partkey").data
        sorted_indexed = []
        stable_order = kernels.stable_order

        def spy(keys):
            sorted_indexed.append(any(key is indexed for key in keys))
            return stable_order(keys)

        monkeypatch.setattr(kernels, "stable_order", spy)
        sql = ALL_EVALUATION_QUERIES["tpch_q17"]
        first, second = (
            corpus.record(corpus.observe(lambda: NestGPU(catalog).execute(sql)))
            for _ in range(2)
        )
        assert sorted_indexed.count(True) == 1  # the first engine's index
        assert first["launches_by_tag"]["sort"] == 1
        for field in ("total_ns", "launch_sequence", "peak_device_bytes"):
            assert second[field] == first[field]
