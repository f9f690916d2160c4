"""ThreadGuard: the checkable single-writer contract for device state."""

from __future__ import annotations

import threading

import pytest

from repro.gpu import Device, DeviceSpec
from repro.serve import (
    ConcurrencyViolation,
    EngineSession,
    OwnedLock,
    ThreadGuard,
)
from repro.tpch import generate_tpch

Q4 = (
    "SELECT o_orderpriority, count(*) AS order_count FROM orders "
    "WHERE EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey "
    "AND l_commitdate < l_receiptdate) GROUP BY o_orderpriority"
)


def run_in_thread(fn):
    """Run ``fn`` on a fresh thread; return the exception it raised."""
    box = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - captured for assert
            box.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    return box[0] if box else None


class TestOwnedLock:
    def test_not_held_initially(self):
        lock = OwnedLock()
        assert not lock.held_by_current()

    def test_held_inside_with(self):
        lock = OwnedLock()
        with lock:
            assert lock.held_by_current()
        assert not lock.held_by_current()

    def test_reentrant(self):
        lock = OwnedLock()
        with lock:
            with lock:
                assert lock.held_by_current()
            assert lock.held_by_current()
        assert not lock.held_by_current()

    def test_other_thread_sees_not_held(self):
        lock = OwnedLock()
        with lock:
            seen = []
            exc = run_in_thread(lambda: seen.append(lock.held_by_current()))
            assert exc is None
            assert seen == [False]


class TestGuardCatchesRaces:
    def test_unlocked_cross_thread_mutation_raises(self, thread_guard):
        device = Device(DeviceSpec.v100())
        thread_guard.install(device)
        device.alloc(64)  # this thread becomes the owner
        exc = run_in_thread(lambda: device.alloc(64))
        assert isinstance(exc, ConcurrencyViolation)
        assert "alloc" in str(exc)
        assert thread_guard.violations == 1

    def test_lock_held_legitimizes_cross_thread_use(self, thread_guard):
        lock = OwnedLock()
        thread_guard.lock = lock
        device = Device(DeviceSpec.v100())
        thread_guard.install(device)
        device.alloc(64)

        def synced():
            with lock:
                device.alloc(64)

        assert run_in_thread(synced) is None
        assert thread_guard.violations == 0

    def test_same_thread_unlocked_is_fine(self, thread_guard):
        device = Device(DeviceSpec.v100())
        thread_guard.install(device)
        for _ in range(5):
            device.alloc(8)
            device.free(8)
        assert thread_guard.violations == 0
        assert thread_guard.checks == 10

    def test_undeclared_class_needs_explicit_methods(self, thread_guard):
        class Bare:
            def poke(self):
                pass

        with pytest.raises(TypeError, match="_GUARDED_METHODS"):
            thread_guard.install(Bare())
        thread_guard.install(Bare(), methods=("poke",))

    def test_uninstall_restores_class_methods(self, thread_guard):
        device = Device(DeviceSpec.v100())
        thread_guard.install(device)
        assert "alloc" in vars(device)  # wrapper shadows the class method
        thread_guard.uninstall()
        assert "alloc" not in vars(device)
        checks = thread_guard.checks
        device.alloc(64)
        assert thread_guard.checks == checks  # wrapper is gone

    def test_guard_is_a_context_manager(self):
        device = Device(DeviceSpec.v100())
        with ThreadGuard().install(device):
            assert "alloc" in vars(device)
        assert "alloc" not in vars(device)


class TestGuardedSession:
    @pytest.fixture(scope="class")
    def catalog(self):
        return generate_tpch(0.02)

    def test_guarded_session_runs_unperturbed(self, catalog, thread_guard):
        with EngineSession(catalog) as plain:
            baseline = plain.execute(Q4)
        with EngineSession(catalog) as session:
            thread_guard.install_session(session)
            guarded = session.execute(Q4)
        assert repr(guarded.stats.total_ns) == repr(baseline.stats.total_ns)
        assert guarded.rows == baseline.rows
        assert thread_guard.checks > 0
        assert thread_guard.violations == 0

    def test_install_session_registers_session_lock(self, catalog, thread_guard):
        with EngineSession(catalog) as session:
            thread_guard.install_session(session)
            assert thread_guard.lock is session.lock
            session.execute(Q4)  # owner thread touches freely

            def synced():
                with session.lock:
                    session.device.alloc(64)
                    session.device.free(64)

            assert run_in_thread(synced) is None

            # unsynchronized first touch makes this thread the owner...
            session.states[0].residency.release_all()
            # ...so an unsynchronized touch from any other thread raises
            exc = run_in_thread(
                lambda: session.states[0].residency.release_all()
            )
            assert isinstance(exc, ConcurrencyViolation)

    def test_install_session_guards_every_shard(self, catalog, thread_guard):
        with EngineSession(catalog, shards=2) as session:
            thread_guard.install_session(session)
            guarded = session.execute(Q4)
            assert guarded.rows and thread_guard.violations == 0
            for state in session.sharded.shard_states:
                for touch in (
                    lambda: state.device.alloc(0),
                    state.pools.reset_tails,
                    state.raw_alloc.free_all,
                    state.residency.release_all,
                ):
                    touch()  # this thread becomes the owner...
                    # ...so an unsynchronized touch from another raises
                    exc = run_in_thread(touch)
                    assert isinstance(exc, ConcurrencyViolation)

    def test_sharded_reload_resets_shards_under_the_lock(self, thread_guard):
        """Planning after ``Catalog.replace`` resets every shard's
        residency; on a worker thread that must happen inside the
        session lock, not beside a neighbour's run."""
        catalog = generate_tpch(0.02, use_cache=False)
        with EngineSession(catalog, shards=2) as session:
            thread_guard.install_session(session)
            session.execute(Q4)
            for state in session.states:
                state.residency.release_all()  # this thread owns them
            catalog.replace(generate_tpch(0.02).table("orders"))
            assert run_in_thread(lambda: session.lookup_or_prepare(Q4)) is None
            assert thread_guard.violations == 0
            reloaded = session.execute(Q4)
        with EngineSession(catalog, shards=2) as fresh:
            assert sorted(reloaded.rows) == sorted(fresh.execute(Q4).rows)
