"""The query ticket is the one record every serving sink reads.

* every sink — the tenant ledger, the ``qos.tenant.*`` and
  ``serve.queries.*`` counters, each tenant's SLO outcomes, the flight
  recorder and the ERROR-code table — equals a fold over
  ``report().queries``, on a batch that ends in every outcome (the
  tier-1 twin of net-smoke's per-tenant query check and of
  telemetry-smoke's flight-recorder outcome checks);
* a ticket is published — ``wait()`` and ``drain()`` return — only
  after every sink holds it.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from conftest import make_rst_catalog
from repro.net.protocol import ErrorCode
from repro.net.server import _ERROR_CODES
from repro.obs import MetricsRegistry
from repro.obs.telemetry import OUTCOMES
from repro.serve import AsyncEngine, EngineSession, TenantBudget

SMALL = "SELECT r_col1 FROM r WHERE r_col2 < 25"
NESTED = (
    "SELECT r_col1 FROM r WHERE r_col2 < "
    "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
)
BIG = (
    "SELECT t_col1, t_col3 FROM t WHERE t_col2 > "
    "(SELECT AVG(s_col2) FROM s WHERE s_col1 = t_col1 AND s_col3 > 1)"
)
UNKNOWN_COLUMN = "SELECT nonexistent_column FROM r"


def _counters(metrics, prefix):
    return metrics.dump_prefix(prefix)["counters"]


@pytest.fixture(scope="module")
def batch():
    """An inline batch over two tenants that ends in every outcome."""
    metrics = MetricsRegistry()
    session = EngineSession(make_rst_catalog(), metrics=metrics)

    def working_set(sql):
        return session.working_set_bytes(session.lookup_or_prepare(sql)[0])

    quota = working_set(SMALL)
    assert working_set(BIG) > quota
    engine = AsyncEngine(
        session, workers=2, autostart=False,
        tenant_budgets={"beta": TenantBudget(quota_bytes=quota)},
    )
    expected_codes = {}

    def submit(sql, tenant, code=None, **kwargs):
        ticket = engine.submit(sql, tenant=tenant, **kwargs)
        if code is not None:
            expected_codes[ticket.seq] = code
        return ticket

    submit(SMALL, "alpha")
    submit(NESTED, "alpha")
    submit(UNKNOWN_COLUMN, "alpha", ErrorCode.QUERY_ERROR)
    doomed = submit(SMALL, "alpha", ErrorCode.CANCELLED)
    submit(NESTED, "alpha", ErrorCode.DEADLINE_EXCEEDED, deadline_s=0)
    submit(SMALL, "beta")
    submit(BIG, "beta", ErrorCode.REJECTED)
    submit(UNKNOWN_COLUMN, "beta", ErrorCode.QUERY_ERROR)
    submit(SMALL, "beta", ErrorCode.DEADLINE_EXCEEDED, deadline_s=0)
    assert doomed.cancel() is True
    report = engine.run_batch([])
    yield engine, metrics, report.queries, expected_codes
    engine.shutdown()
    session.close()


def test_the_batch_covers_every_outcome_in_seq_order(batch):
    _, _, tickets, _ = batch
    assert [t.seq for t in tickets] == list(range(len(tickets)))
    assert all(t.done() for t in tickets)
    assert {t.outcome for t in tickets} == set(OUTCOMES)


def test_tenant_ledger_is_a_fold_over_the_tickets(batch):
    engine, _, tickets, _ = batch
    stats = engine.tenant_stats()
    for tenant in ("alpha", "beta"):
        mine = [t for t in tickets if t.tenant == tenant]
        ok = [t for t in mine if t.outcome == "ok"]
        outcomes = Counter(t.outcome for t in mine)
        account = stats[tenant]
        assert account["submitted"] == len(mine)
        assert account["queries"] == len(ok) == outcomes["ok"]
        assert account["rows"] == sum(t.result.num_rows for t in ok)
        assert account["device_ms"] == pytest.approx(
            sum(t.result.stats.total_ns for t in ok) / 1e6
        )
        assert account["wall_s"] == pytest.approx(
            sum(t.wall_run_ms for t in ok) / 1e3
        )
        assert account["rejections"] == outcomes["rejected"]
        assert account["errors"] == outcomes["error"]
        assert account["cancellations"] == (
            outcomes["cancelled"] + outcomes["deadline"]
        )
        assert account["slo"]["outcomes"] == {
            outcome: outcomes[outcome] for outcome in OUTCOMES
        }


def test_counters_are_a_fold_over_the_tickets(batch):
    _, metrics, tickets, _ = batch
    statuses = Counter(t.status for t in tickets)
    serve = _counters(metrics, "serve.queries.")
    assert serve["serve.queries.admitted"] == statuses["done"]
    for status in ("rejected", "error", "cancelled"):
        assert serve[f"serve.queries.{status}"] == statuses[status]
    for tenant in ("alpha", "beta"):
        prefix = f"qos.tenant.{tenant}"
        counters = _counters(metrics, f"{prefix}.")
        mine = [t for t in tickets if t.tenant == tenant]
        ok = [t for t in mine if t.status == "done"]
        assert counters[f"{prefix}.queries"] == len(ok)
        assert counters[f"{prefix}.rows"] == sum(
            t.result.num_rows for t in ok
        )
        assert counters[f"{prefix}.device_ns"] == pytest.approx(
            sum(t.result.stats.total_ns for t in ok)
        )
        for status in ("rejected", "error", "cancelled"):
            assert counters.get(f"{prefix}.{status}", 0) == sum(
                t.status == status for t in mine
            )


def test_flight_recorder_holds_one_record_per_ticket(batch):
    engine, _, tickets, _ = batch
    dump = engine.flight_recorder.dump()
    assert [(r["seq"], r["status"], r["outcome"]) for r in dump] == [
        (t.seq, t.status, t.outcome) for t in tickets
    ]
    for record, ticket in zip(dump, tickets):
        assert record == ticket.flight_dict()
        assert record["tenant"] == ticket.tenant
        assert record["latency_ms"] == ticket.latency_ms
        assert ("rows" in record) == (ticket.outcome == "ok")


def test_error_codes_follow_the_outcome(batch):
    _, _, tickets, expected_codes = batch
    assert set(_ERROR_CODES) == set(OUTCOMES) - {"ok"}
    assert {
        t.seq: _ERROR_CODES[t.outcome] for t in tickets if t.outcome != "ok"
    } == expected_codes


class _SlowAdmittedRegistry(MetricsRegistry):
    """Takes 0.2 s to hand out ``serve.queries.admitted``."""

    def counter(self, name):
        if name == "serve.queries.admitted":
            time.sleep(0.2)
        return super().counter(name)


def test_a_ticket_is_published_after_every_sink():
    metrics = _SlowAdmittedRegistry()

    def admitted():
        # read without counter(), which would wait out the writer
        return _counters(metrics, "serve.").get("serve.queries.admitted", 0)

    with EngineSession(make_rst_catalog(), metrics=metrics) as session:
        engine = AsyncEngine(session, workers=2)
        try:
            ticket = engine.submit(SMALL)
            assert ticket.wait(30.0)
            assert admitted() == 1
            assert engine.flight_recorder.recorded == 1
            engine.submit(SMALL)
            engine.submit(NESTED)
            assert engine.drain(30.0)
            assert admitted() == 3
            assert engine.flight_recorder.recorded == 3
        finally:
            engine.shutdown()
