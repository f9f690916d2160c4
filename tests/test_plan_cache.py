"""Plan cache and prepared-statement semantics."""

from __future__ import annotations

import pytest
from conftest import rows_set

from repro.baselines import RowstoreEngine
from repro.serve import EngineSession, PlanCache, normalize_sql
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

Q4 = ALL_EVALUATION_QUERIES["tpch_q4"]


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(0.05)


@pytest.fixture()
def session(catalog):
    with EngineSession(catalog) as s:
        yield s


class TestPlanCacheUnit:
    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        cache.put(("a", "auto", ()), "plan-a")
        cache.put(("b", "auto", ()), "plan-b")
        assert cache.get(("a", "auto", ())) == "plan-a"  # refresh a
        cache.put(("c", "auto", ()), "plan-c")  # evicts b
        assert cache.get(("b", "auto", ())) is None
        assert cache.get(("a", "auto", ())) == "plan-a"
        assert cache.evictions == 1

    def test_hit_ratio(self):
        cache = PlanCache()
        assert cache.hit_ratio == 0.0
        cache.put(("a", "auto", ()), "plan")
        cache.get(("a", "auto", ()))
        cache.get(("missing", "auto", ()))
        assert cache.hit_ratio == 0.5

    def test_invalidate_all(self):
        cache = PlanCache()
        cache.put(("a", "auto", ()), "plan")
        cache.invalidate_all()
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_normalize_collapses_whitespace(self):
        assert normalize_sql("SELECT  1\n  FROM t") == "SELECT 1 FROM t"

    def test_normalize_preserves_quoted_whitespace(self):
        # whitespace inside a string literal is data, not formatting
        assert (
            normalize_sql("SELECT  1 WHERE c = 'a  b'")
            == "SELECT 1 WHERE c = 'a  b'"
        )
        assert normalize_sql("WHERE c = 'a  b'") != normalize_sql(
            "WHERE c = 'a b'"
        )

    def test_normalize_handles_escaped_quotes(self):
        # '' is an escaped quote: the literal runs to the real close
        sql = "SELECT 'it''s  here',   2"
        assert normalize_sql(sql) == "SELECT 'it''s  here', 2"

    def test_normalize_preserves_double_quoted_identifiers(self):
        assert (
            normalize_sql('SELECT  "my  col" FROM t')
            == 'SELECT "my  col" FROM t'
        )


class TestSessionPlanCache:
    def test_hit_on_identical_sql(self, session):
        first = session.execute(Q4)
        second = session.execute(Q4)
        assert not first.plan_cache_hit
        assert second.plan_cache_hit
        assert session.plan_cache.hits == 1
        assert repr(rows_set(second)) == repr(rows_set(first))

    def test_hit_is_whitespace_insensitive(self, session):
        session.execute(Q4)
        reformatted = Q4.replace(" ", "\n   ", 3)
        assert session.execute(reformatted).plan_cache_hit

    def test_miss_on_different_mode(self, session):
        session.execute(Q4, mode="nested")
        assert not session.execute(Q4, mode="auto").plan_cache_hit
        assert session.execute(Q4, mode="nested").plan_cache_hit

    def test_miss_after_catalog_reload(self):
        # a private catalog: the reload below must not leak into the
        # process-wide generate_tpch cache other modules pin against
        catalog = generate_tpch(0.05, use_cache=False)
        with EngineSession(catalog) as session:
            session.execute(Q4)
            assert session.execute(Q4).plan_cache_hit
            catalog.replace(generate_tpch(0.1).table("orders"))
            assert not session.execute(Q4).plan_cache_hit
            assert session.plan_cache.invalidations == 1


class TestQuoteAwareCacheKeys:
    """Regression: literals that differ only in internal whitespace
    used to collapse to one cache key, so the second query silently
    returned the first query's cached plan — and its rows."""

    @pytest.fixture()
    def docs_session(self):
        from repro.storage import Catalog, Table, int_type, string_type

        table = Table.from_pydict(
            "docs", [("c", string_type(8)), ("v", int_type(4))],
            {"c": ["a  b", "a  b", "a  b", "a b"], "v": [1, 2, 3, 4]},
        )
        with EngineSession(Catalog([table])) as s:
            yield s

    def test_distinct_literals_get_distinct_entries(self, docs_session):
        wide = docs_session.execute("SELECT v FROM docs WHERE c = 'a  b'")
        narrow = docs_session.execute("SELECT v FROM docs WHERE c = 'a b'")
        assert not narrow.plan_cache_hit
        assert len(docs_session.plan_cache) == 2
        assert rows_set(wide) == [(1,), (2,), (3,)]
        assert rows_set(narrow) == [(4,)]

    def test_formatting_around_literals_still_hits(self, docs_session):
        docs_session.execute("SELECT v FROM docs WHERE c = 'a  b'")
        hit = docs_session.execute("SELECT  v\nFROM docs  WHERE c = 'a  b'")
        assert hit.plan_cache_hit


class TestPreparedStatements:
    # numeric outputs only: the rowstore oracle returns raw dictionary
    # codes for string group keys, which would not compare
    TEMPLATE = (
        "SELECT count(*) AS order_count, sum(o_totalprice) AS total "
        "FROM orders WHERE o_totalprice > $1 AND o_totalprice > "
        "(SELECT avg(l_extendedprice) FROM lineitem "
        "WHERE l_orderkey = o_orderkey)"
    )

    def test_rebinding_matches_rowstore_oracle(self, catalog, session):
        statement = session.prepare_statement(self.TEMPLATE)
        oracle = RowstoreEngine(catalog)
        for threshold in (0.0, 1000.0, 50000.0):
            served = statement.execute(threshold)
            expected = oracle.execute(statement.bind(threshold))
            assert repr(rows_set(served)) == repr(rows_set(expected))

    def test_same_values_hit_fresh_values_miss(self, session):
        statement = session.prepare_statement(self.TEMPLATE)
        assert not statement.execute(500.0).plan_cache_hit
        assert statement.execute(500.0).plan_cache_hit
        assert not statement.execute(900.0).plan_cache_hit

    def test_param_signature_separates_types(self, session):
        statement = session.prepare_statement(
            "SELECT count(*) AS c FROM orders WHERE o_orderkey > $1"
        )
        statement.execute(5)
        key_int = PlanCache.key(statement.bind(5), "auto", ("int",))
        key_float = PlanCache.key(statement.bind(5), "auto", ("float",))
        assert key_int in session.plan_cache
        assert key_float not in session.plan_cache

    def test_gap_in_placeholders_rejected(self, session):
        with pytest.raises(ValueError):
            session.prepare_statement("SELECT $2 FROM orders")

    def test_wrong_arity_rejected(self, session):
        statement = session.prepare_statement(
            "SELECT count(*) AS c FROM orders WHERE o_orderkey > $1"
        )
        with pytest.raises(ValueError):
            statement.execute(1, 2)

    def test_string_parameter_quoting(self, session):
        statement = session.prepare_statement(
            "SELECT count(*) AS c FROM orders WHERE o_orderpriority = $1"
        )
        result = statement.execute("1-URGENT")
        assert result.rows[0][0] > 0
