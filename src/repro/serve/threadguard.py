"""Race-detector-style assertions for the shared device state.

The simulated :class:`~repro.gpu.device.Device` and its collaborators
(pools, raw allocator, column residency) are *deliberately* not
internally synchronized: per-call locking would tax the single-query
hot path that every modelled time in the repo is calibrated against.
The concurrency contract is instead structural — all mutation of a
session's device state happens either from a single thread, or while
holding the session's :class:`OwnedLock` (see
``docs/architecture.md`` §8 for the lock hierarchy).

:class:`ThreadGuard` makes that contract *checkable*.  Installed on an
object (tests do this through the ``thread_guard`` conftest fixture,
the :class:`~repro.serve.concurrent.AsyncEngine` through its
``guard=`` argument), it wraps the object's declared mutation entry
points — each class lists them in ``_GUARDED_METHODS`` — and raises
:class:`ConcurrencyViolation` the moment a second thread mutates the
object without holding the registered lock.  Uninstalled (the
default everywhere), the wrapped methods revert to the plain class
methods and cost nothing.
"""

from __future__ import annotations

import functools
import threading

from ..errors import ReproError


class ConcurrencyViolation(ReproError):
    """Unsynchronized cross-thread mutation of guarded device state."""


class OwnedLock:
    """A re-entrant lock that knows whether the *caller* holds it.

    ``threading.RLock`` keeps its owner private; the guard needs to ask
    "is the current thread inside the session's critical section?", so
    this wrapper tracks the owning thread ident itself.  ``_owner`` is
    only written while the underlying lock is held, making the
    :meth:`held_by_current` read race-free for its one supported
    question (a thread asking about *itself*).
    """

    __slots__ = ("_lock", "_owner", "_depth")

    def __init__(self):
        self._lock = threading.RLock()
        self._owner: int | None = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._depth += 1
        return acquired

    def release(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    def __enter__(self) -> "OwnedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def held_by_current(self) -> bool:
        """Whether the calling thread currently holds this lock."""
        return self._depth > 0 and self._owner == threading.get_ident()


class ThreadGuard:
    """Wrap mutation entry points; raise on unsynchronized cross-thread use.

    The rule checked on every guarded call:

    * if a ``lock`` is registered and the calling thread holds it, the
      call is synchronized — always allowed;
    * otherwise the first unsynchronized caller becomes the object's
      *owner thread*, and any unsynchronized call from a different
      thread raises :class:`ConcurrencyViolation`.

    That is exactly the contract single-query code already satisfies
    (one thread, no lock needed) and concurrent serving must satisfy
    (every device touch inside the session lock), so the guard can be
    installed in tests without changing behaviour — it only ever
    *adds* an exception where a data race was about to happen.
    """

    def __init__(self, lock: OwnedLock | None = None):
        self.lock = lock
        self.checks = 0
        self.violations = 0
        self._owners: dict[int, tuple[int, str]] = {}
        self._installed: list[tuple[object, str]] = []

    # -- installation ----------------------------------------------------

    def install(self, obj, methods=None) -> "ThreadGuard":
        """Guard ``obj``'s mutation entry points.

        ``methods`` defaults to the class's ``_GUARDED_METHODS``
        declaration.  Wrapping is per *instance* (a shadowing instance
        attribute over the bound class method), so other instances of
        the class — and all code once :meth:`uninstall` runs — pay
        nothing.
        """
        if methods is None:
            methods = getattr(type(obj), "_GUARDED_METHODS", None)
            if methods is None:
                raise TypeError(
                    f"{type(obj).__name__} declares no _GUARDED_METHODS; "
                    "pass methods= explicitly"
                )
        for name in methods:
            original = getattr(obj, name)
            setattr(obj, name, self._checked(obj, name, original))
            self._installed.append((obj, name))
        return self

    def install_session(self, session) -> "ThreadGuard":
        """Guard every device-state collaborator of an EngineSession,
        on each of its devices.

        Registers the session's own lock as the legitimizing lock, so
        properly synchronized serving code passes and anything touching
        the device outside the critical section raises.
        """
        self.lock = session.lock
        for state in session.states:
            pools = state.pools
            for obj in (
                state.device,
                pools,
                pools.meta,
                pools.intermediate,
                pools.inter_kernel,
                state.raw_alloc,
                state.residency,
            ):
                self.install(obj)
        return self

    def uninstall(self) -> None:
        """Remove every wrapper, restoring the plain class methods."""
        for obj, name in self._installed:
            try:
                delattr(obj, name)
            except AttributeError:
                pass
        self._installed.clear()
        self._owners.clear()

    def __enter__(self) -> "ThreadGuard":
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- the check -------------------------------------------------------

    def _checked(self, obj, name: str, original):
        guard = self

        @functools.wraps(original)
        def checked(*args, **kwargs):
            guard._check(obj, name)
            return original(*args, **kwargs)

        return checked

    def _check(self, obj, name: str) -> None:
        self.checks += 1
        lock = self.lock
        if lock is not None and lock.held_by_current():
            return
        ident = threading.get_ident()
        owner = self._owners.setdefault(id(obj), (ident, name))
        if owner[0] != ident:
            self.violations += 1
            raise ConcurrencyViolation(
                f"{type(obj).__name__}.{name} mutated from thread {ident} "
                f"without the session lock; thread {owner[0]} already owns "
                f"this object (first touch: {owner[1]})"
            )
