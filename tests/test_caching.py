"""Tests for subquery result caching."""

import numpy as np
import pytest

from repro.core import SubqueryCache


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = SubqueryCache()
        assert cache.get((1,)) is None
        cache.put((1,), 5.0, True)
        assert cache.get((1,)) == (5.0, True)
        assert cache.hits == 1 and cache.misses == 1

    def test_invalid_results_cached_too(self):
        cache = SubqueryCache()
        cache.put((2,), float("nan"), False)
        value, valid = cache.get((2,))
        assert not valid

    def test_disabled_cache_never_hits(self):
        cache = SubqueryCache(enabled=False)
        cache.put((1,), 5.0, True)
        assert cache.get((1,)) is None
        assert len(cache) == 0

    def test_composite_keys(self):
        cache = SubqueryCache()
        cache.put((1, 2), 3.0, True)
        assert cache.get((1, 2)) is not None
        assert cache.get((2, 1)) is None

    def test_len(self):
        cache = SubqueryCache()
        cache.put((1,), 1.0, True)
        cache.put((1,), 2.0, True)  # overwrite
        cache.put((2,), 3.0, True)
        assert len(cache) == 2


class TestBatchInterface:
    def test_probe_batch_split(self):
        cache = SubqueryCache()
        cache.put((1,), 10.0, True)
        hit_rows, hit_values, miss_rows = cache.probe_batch([(1,), (2,), (1,)])
        assert hit_rows == [0, 2]
        assert [v for v, _ in hit_values] == [10.0, 10.0]
        assert miss_rows == [1]

    def test_probe_batch_disabled(self):
        cache = SubqueryCache(enabled=False)
        cache.put((1,), 10.0, True)
        hit_rows, _, miss_rows = cache.probe_batch([(1,), (2,)])
        assert hit_rows == [] and miss_rows == [0, 1]

    def test_put_batch(self):
        cache = SubqueryCache()
        cache.put_batch(
            [(1,), (2,)], np.array([5.0, 6.0]), np.array([True, False])
        )
        assert cache.get((1,)) == (5.0, True)
        assert cache.get((2,)) == (6.0, False)


class TestCachingEndToEnd:
    def test_skewed_params_mostly_hit(self, tpch_small):
        """Q17's correlated column (p_partkey through lineitem) repeats,
        so the loop path should serve most iterations from cache."""
        from repro.core import NestGPU
        from repro.engine import EngineOptions
        from repro.tpch import queries

        db = NestGPU(
            tpch_small, options=EngineOptions(use_vectorization=False)
        )
        result = db.execute(queries.TPCH_Q17, mode="nested")
        assert result.cache_hits > result.cache_misses

    def test_cache_off_recomputes(self, tpch_small):
        from repro.core import NestGPU
        from repro.engine import EngineOptions
        from repro.tpch import queries

        on = NestGPU(tpch_small, options=EngineOptions(use_vectorization=False))
        off = NestGPU(tpch_small, options=EngineOptions(
            use_vectorization=False, use_cache=False
        ))
        fast = on.execute(queries.TPCH_Q17, mode="nested")
        slow = off.execute(queries.TPCH_Q17, mode="nested")
        assert slow.cache_hits == 0
        assert slow.total_ms > fast.total_ms
        assert sorted(map(repr, slow.rows)) == sorted(map(repr, fast.rows))


class TestHitRatio:
    def test_tracks_probes(self):
        from repro.core.caching import SubqueryCache

        cache = SubqueryCache()
        assert cache.get((1,)) is None
        cache.put((1,), 2.0, True)
        assert cache.get((1,)) == (2.0, True)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disabled_cache_never_hits(self):
        from repro.core.caching import SubqueryCache

        cache = SubqueryCache(enabled=False)
        cache.get((1,))  # scalar-loop probes count as evaluations
        cache.probe_batch([(1,), (2,)])  # batch path reports rows only
        assert cache.hits == 0
        assert cache.misses == 1
