"""End-to-end multi-tenant runs over real sockets.

The PR's acceptance criteria, as tests:

* two tenants driving the paper mix concurrently through the network
  stack get rows **bit-identical** to a solo in-process run (both
  sides normalised through the wire codec, so a mismatch is a real
  row difference);
* under **fair-share** a low-priority tenant's first service position
  and starvation age stay bounded while a high-priority flood is
  backlogged — and under **priority-FIFO** they are not (the flood
  runs first, end to end);
* prepared statements and the plan cache work over the wire;
  pagination reassembles exactly.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import NestGPU
from repro.net import NetServer, ReproNetClient, ServerThread, demo_registry
from repro.net.protocol import decode_rows, encode_rows
from repro.serve import AsyncEngine, EngineSession, paper_mix_statements
from repro.tpch import generate_tpch

SCALE = 0.05
DRAIN_TIMEOUT = 120.0


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(SCALE)


@pytest.fixture(scope="module")
def solo_rows(catalog):
    """Paper-mix rows from a solo engine, normalised via the codec."""
    engine = NestGPU(catalog)
    return [
        repr(decode_rows(encode_rows(engine.execute(sql).rows)))
        for sql in paper_mix_statements()
    ]


def make_stack(catalog, **engine_kwargs):
    session = EngineSession(catalog)
    registry = demo_registry()
    engine_kwargs.setdefault(
        "tenant_budgets", registry.budgets(session.device_capacity_bytes),
    )
    engine_kwargs.setdefault("tenant_weights", registry.weights())
    engine = AsyncEngine(session, **engine_kwargs)
    server = ServerThread(NetServer(engine, registry)).start()
    return session, engine, server


def teardown_stack(session, engine, server):
    engine.shutdown(drain=False, timeout=10.0)
    server.stop()
    session.close()


class TestTwoTenantBitIdentity:
    def test_concurrent_paper_mix_matches_solo(self, catalog, solo_rows):
        session, engine, server = make_stack(
            catalog, workers=2, policy="fair",
        )
        try:
            results = {}
            errors = []

            def drive(token):
                try:
                    with ReproNetClient(
                        server.host, server.port, token=token,
                    ) as client:
                        results[token] = [
                            repr(client.execute(sql).rows)
                            for sql in paper_mix_statements()
                        ]
                except Exception as exc:
                    errors.append((token, exc))

            threads = [
                threading.Thread(target=drive, args=(token,))
                for token in ("alpha-token", "beta-token")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(DRAIN_TIMEOUT)
            assert not errors, errors
            # both tenants, racing on one engine, saw the solo rows
            assert results["alpha-token"] == solo_rows
            assert results["beta-token"] == solo_rows
            stats = engine.tenant_stats()
            assert stats["alpha"]["queries"] == 10
            assert stats["beta"]["queries"] == 10
        finally:
            teardown_stack(session, engine, server)


class StarvationRig:
    """12 high-priority alpha queries + 4 low-priority beta queries,
    all queued over sockets before a single slow worker starts."""

    ALPHA, BETA = 12, 4
    SQL = "SELECT o_orderkey FROM orders WHERE o_totalprice > 1000"

    def run(self, catalog, policy):
        session = EngineSession(catalog)
        original = session.run

        def slow_run(*args, **kwargs):
            time.sleep(0.02)
            return original(*args, **kwargs)

        session.run = slow_run
        registry = demo_registry()
        engine = AsyncEngine(
            session, workers=1, queue_capacity=64, autostart=False,
            policy=policy,
            tenant_budgets=registry.budgets(session.device_capacity_bytes),
            tenant_weights=registry.weights(),
        )
        server = ServerThread(NetServer(engine, registry)).start()
        try:
            alpha = ReproNetClient(
                server.host, server.port, token="alpha-token",
            )
            beta = ReproNetClient(
                server.host, server.port, token="beta-token",
            )
            alpha_qids = [
                alpha.execute(self.SQL, wait=False)
                for _ in range(self.ALPHA)
            ]
            beta_qids = [
                beta.execute(self.SQL, wait=False)
                for _ in range(self.BETA)
            ]
            # STATS round-trips prove every EXECUTE was accepted
            # before the worker starts — the backlog is fully formed
            alpha.stats()
            beta.stats()
            engine.start()
            for qid in alpha_qids:
                assert alpha.wait(qid).num_rows > 0
            for qid in beta_qids:
                assert beta.wait(qid).num_rows > 0
            alpha.close()
            beta.close()
            assert engine.drain(timeout=DRAIN_TIMEOUT)
            # service order: position of beta's first query in the
            # worker's actual wall-clock dequeue sequence
            done = sorted(
                (t for t in engine._tickets if t.status == "done"),
                key=lambda t: t.wall_start_s,
            )
            order = [t.tenant for t in done]
            first_beta = order.index("beta")
            return first_beta, engine.tenant_stats()
        finally:
            teardown_stack(session, engine, server)


class TestStarvationBound:
    def test_fair_share_bounds_the_low_priority_tenant(self, catalog):
        rig = StarvationRig()
        first_beta, stats = rig.run(catalog, "fair")
        # weights are alpha:3 beta:1 — beta's first pick lands within
        # the first stride cycle, not behind the whole alpha flood
        assert first_beta <= 4, f"beta first served at position {first_beta}"
        assert stats["beta"]["queries"] == rig.BETA

    def test_priority_fifo_does_not_bound_it(self, catalog):
        rig = StarvationRig()
        first_beta, stats = rig.run(catalog, "priority")
        # the degenerate case the fair policy exists to fix: every
        # high-priority query runs before beta sees the device
        assert first_beta == rig.ALPHA, (
            f"beta first served at position {first_beta}"
        )
        assert stats["alpha"]["max_starvation_s"] <= (
            stats["beta"]["max_starvation_s"]
        )

    def test_fair_share_starves_beta_less_than_priority(self, catalog):
        rig = StarvationRig()
        _, fair_stats = rig.run(catalog, "fair")
        _, fifo_stats = rig.run(catalog, "priority")
        assert fair_stats["beta"]["max_starvation_s"] < (
            fifo_stats["beta"]["max_starvation_s"]
        )


class TestStatementsOverTheWire:
    def test_prepared_statements_and_plan_cache(self, catalog):
        session, engine, server = make_stack(catalog, workers=2)
        try:
            with ReproNetClient(
                server.host, server.port, token="alpha-token",
            ) as client:
                stmt = client.prepare(
                    "SELECT o_orderkey, o_totalprice FROM orders "
                    "WHERE o_totalprice > $1"
                )
                first = client.execute(stmt_id=stmt, params=(50000,))
                second = client.execute(stmt_id=stmt, params=(50000,))
                assert repr(first.rows) == repr(second.rows)
                assert not first.plan_cache_hit
                assert second.plan_cache_hit
                # a different binding is a different plan-cache key
                other = client.execute(stmt_id=stmt, params=(90000,))
                assert other.num_rows <= first.num_rows
        finally:
            teardown_stack(session, engine, server)

    def test_pagination_reassembles_exactly(self, catalog):
        session, engine, server = make_stack(catalog, workers=1)
        try:
            sql = "SELECT o_orderkey FROM orders WHERE o_totalprice > 0"
            with ReproNetClient(
                server.host, server.port, token="beta-token",
            ) as client:
                whole = client.execute(sql)
                assert whole.num_rows > 20
                paged = client.execute(sql, fetch_size=7)
                assert repr(paged.rows) == repr(whole.rows)
        finally:
            teardown_stack(session, engine, server)
