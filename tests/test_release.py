"""A closed serving stack frees its catalog with its last reference.

Reference cycles through a session's engine keep every table alive
until the next cyclic collection, so a process that rebuilds a large
catalog (one SF-10 catalog per benchmark setup) would hold several at
once whenever that collection came late.  Each case runs with the
cyclic collector off and checks that the tables are gone as soon as
the stack is closed and dropped.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from conftest import make_rst_catalog
from repro.net import NetServer, ReproNetClient, ServerThread, demo_registry
from repro.serve import AsyncEngine, EngineSession

SQL = (
    "SELECT r_col1 FROM r WHERE r_col2 < "
    "(SELECT AVG(s_col2) FROM s WHERE s_col1 = r_col1)"
)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def tables_of(catalog) -> list:
    return [weakref.ref(table) for table in catalog]


class TestFreedWithoutACyclicCollection:
    def test_auto_mode_session(self, no_cyclic_gc):
        catalog = make_rst_catalog()
        tables = tables_of(catalog)
        session = EngineSession(catalog)  # auto: the flat plan is costed
        assert session.execute(SQL).plan_choice in ("nested", "unnested")
        session.close()
        del session, catalog
        assert all(ref() is None for ref in tables)

    def test_threaded_engine(self, no_cyclic_gc):
        catalog = make_rst_catalog()
        tables = tables_of(catalog)
        session = EngineSession(catalog)
        engine = AsyncEngine(session, workers=2)
        tickets = [engine.submit(SQL) for _ in range(4)]
        assert engine.drain(timeout=60.0)
        assert [t.status for t in tickets] == ["done"] * 4
        engine.shutdown(drain=True, timeout=30.0)
        session.close()
        del session, engine, tickets, catalog
        assert all(ref() is None for ref in tables)

    def test_net_server(self, no_cyclic_gc):
        catalog = make_rst_catalog()
        tables = tables_of(catalog)
        session = EngineSession(catalog)
        registry = demo_registry()
        engine = AsyncEngine(session, workers=1)
        server = ServerThread(NetServer(engine, registry)).start()
        with ReproNetClient(server.host, server.port,
                            token="alpha-token") as client:
            assert client.execute(SQL).rows is not None
        engine.shutdown(drain=True, timeout=30.0)
        server.stop()
        session.close()
        del session, engine, server, client, catalog
        assert all(ref() is None for ref in tables)


#: The recursive walkers of the compile pipeline that were closures:
#: each reached itself through its cell, so every compile left a cycle
#: for the collector.
_RECURSIVE_WALKERS = {
    "prune_scan_columns.<locals>.collect",
    "_free_quals.<locals>.visit",
    "mark_invariants.<locals>.visit",
}


def test_compiling_the_paper_queries_leaves_no_recursive_closure():
    from repro.core import NestGPU
    from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

    engine = NestGPU(generate_tpch(0.05))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for sql in ALL_EVALUATION_QUERIES.values():
            for mode in ("nested", "unnested", "auto"):
                try:
                    engine.prepare(sql, mode=mode)
                except Exception:  # an unnesting refusal still compiled
                    pass
        gc.collect()
        leaked = {
            (obj.__module__, obj.__qualname__) for obj in gc.garbage
            if isinstance(obj, types.FunctionType)
        }
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not {name for _, name in leaked} & _RECURSIVE_WALKERS
    # nor does any other function of the planner
    assert not {name for module, name in leaked if (module or "").startswith("repro.plan")}
