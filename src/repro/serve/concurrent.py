"""The serving engine: one scheduler, two drive modes.

The :class:`AsyncEngine` runs submitted statements over one shared
:class:`~repro.serve.session.EngineSession` (device, pools, residency,
plan/index caches).  Who drains the queue is the only difference
between its two modes: **threaded** (the default) starts one worker
thread per modelled stream; **inline** (``autostart=False`` +
:meth:`AsyncEngine.run_batch`) drains on the calling thread with no
threads at all, which makes the whole run — dequeue order, placement,
makespan — deterministic.  Everything else is one code path:

* **submission** goes through a thread-safe *bounded* queue; a full
  queue rejects with :class:`BackpressureError` carrying a
  ``retry_after_s`` estimate (queue depth x recent service time);
* **planning** runs concurrently across workers — the plan cache is
  internally locked and the catalog is read-only;
* **admission** reserves a query's modelled working set against HBM
  capacity in the :class:`AdmissionController` before the query may
  touch the device: oversized queries are rejected outright, queries
  that do not fit next to the reservations in flight wait their turn
  (FIFO within a priority, higher priorities first);
* **execution** holds the session lock for the whole run — the
  modelled device, like a single real GPU stream, runs one query at a
  time — and, still under the lock, the engine's
  :class:`~repro.serve.scheduler.StreamTimeline` places the measured
  duration on the modelled per-stream clocks: the worker's own stream
  when threaded, the earliest-free one when inline.  At one worker the
  two modes agree bit for bit, with each other and with a solo engine;
* **deadlines** cancel a query that has not reached the device in
  time, and explicit :meth:`QueryTicket.cancel` works until device
  execution starts; both always release any admission reservation;
* **drain/shutdown**: :meth:`AsyncEngine.drain` blocks until every
  accepted query is terminal, :meth:`AsyncEngine.shutdown` stops the
  workers (optionally draining first; queued work is cancelled, never
  silently dropped).

Lock hierarchy (acquire strictly downward, release before going up):

    queue condition  >  admission condition  >  session lock
                                                >  plan-cache / metrics / tracer locks

Results carry both clocks: modelled placement (``start_ns``,
``duration_ns``, ``queue_wait_ns`` on the modelled per-stream
timeline) and wall-clock (``wall_wait_s``, ``wall_run_s``).

Multi-tenant QoS (the network server's substrate, see
:mod:`repro.net`): every submission may carry a *tenant* name.  A
:class:`TenantBudget` caps a tenant's live HBM reservations and its
in-flight query count inside the :class:`AdmissionController` — a
quota-blocked tenant never blocks other tenants' admissions.  The
engine's dequeue order is a pluggable :class:`SchedulingPolicy`:
:class:`PriorityFifoPolicy` is the historical ``(priority desc,
arrival)`` rule, :class:`FairSharePolicy` is weighted fair queueing
over tenants (stride scheduling on a virtual clock, so a backlogged
tenant is served at least once every ``2 x (tenants - 1)`` picks
regardless of the other tenants' priorities).  Per-tenant accounting
(queries, rows, modelled device time, wall time, rejections,
starvation age) lives in :class:`TenantAccount` and is mirrored into
the session's metrics registry under ``qos.tenant.<name>.*``.
"""

from __future__ import annotations

import threading
import time

from ..core import QueryResult
from ..core.executor import PreparedQuery
from ..errors import ReproError
from ..obs.telemetry import (
    FlightRecorder,
    SLObjective,
    SLOTracker,
    build_trace_payload,
)
from ..obs.tracer import Tracer
from .scheduler import (
    AdmissionError,
    ScheduledQuery,
    StreamTimeline,
    WorkloadReport,
)
from .session import EngineSession


class BackpressureError(ReproError):
    """The submission queue is full; retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(
            f"submission queue is full ({depth} queued); "
            f"retry in ~{retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s


class QueryCancelled(ReproError):
    """The query was cancelled before device execution started."""


class DeadlineExceeded(QueryCancelled):
    """The query's deadline passed before it reached the device."""


# ---------------------------------------------------------------------------
# multi-tenant QoS primitives
# ---------------------------------------------------------------------------


class TenantBudget:
    """One tenant's admission limits and live usage.

    ``quota_bytes`` caps the sum of the tenant's live HBM
    reservations; ``max_in_flight`` caps its admitted-but-unreleased
    query count.  ``None`` means unlimited.  ``peak_*`` record the
    proven maxima (the property tests' witnesses).
    """

    __slots__ = (
        "quota_bytes", "max_in_flight",
        "in_use", "in_flight", "peak_in_use", "peak_in_flight",
    )

    def __init__(self, quota_bytes: int | None = None,
                 max_in_flight: int | None = None):
        if quota_bytes is not None and quota_bytes <= 0:
            raise ValueError("quota_bytes must be positive")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.quota_bytes = quota_bytes
        self.max_in_flight = max_in_flight
        self.in_use = 0
        self.in_flight = 0
        self.peak_in_use = 0
        self.peak_in_flight = 0

    def to_dict(self) -> dict:
        return {
            "quota_bytes": self.quota_bytes,
            "max_in_flight": self.max_in_flight,
            "in_use_bytes": self.in_use,
            "in_flight": self.in_flight,
            "peak_in_use_bytes": self.peak_in_use,
            "peak_in_flight": self.peak_in_flight,
        }


class TenantAccount:
    """Per-tenant served-workload accounting (engine-side ledger)."""

    __slots__ = (
        "name", "submitted", "queries", "rows", "device_ns", "wall_s",
        "rejections", "cancellations", "errors", "max_starvation_s",
    )

    def __init__(self, name: str):
        self.name = name
        self.submitted = 0
        self.queries = 0          # completed
        self.rows = 0
        self.device_ns = 0.0      # modelled device time
        self.wall_s = 0.0         # real device wall time
        self.rejections = 0
        self.cancellations = 0
        self.errors = 0
        self.max_starvation_s = 0.0  # longest submit->dequeue wait seen

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "queries": self.queries,
            "rows": self.rows,
            "device_ms": self.device_ns / 1e6,
            "wall_s": self.wall_s,
            "rejections": self.rejections,
            "cancellations": self.cancellations,
            "errors": self.errors,
            "max_starvation_s": self.max_starvation_s,
        }


class SchedulingPolicy:
    """Dequeue-order strategy over the engine's pending tickets.

    ``select`` returns (without removing) the ticket to run next from
    a non-empty pending list.  The engine calls it under its queue
    lock, so implementations may keep unsynchronized internal state.
    """

    name = "abstract"

    def select(self, pending):  # pragma: no cover - interface
        raise NotImplementedError


class PriorityFifoPolicy(SchedulingPolicy):
    """The historical order: priority descending, then arrival."""

    name = "priority"

    def select(self, pending):
        return min(pending, key=lambda t: (-t.priority, t.seq))


class FairSharePolicy(SchedulingPolicy):
    """Weighted fair queueing across tenants (stride scheduling).

    Each tenant owns a virtual time; a pick charges the chosen tenant
    ``1 / weight`` and the tenant with the smallest virtual time goes
    next (ties to the oldest head ticket).  A tenant first seen — or
    returning from idle — joins at the current virtual clock, so
    absence neither banks credit nor costs position.  Within a tenant
    the order stays ``(priority desc, arrival)``, which makes the
    single-tenant case degenerate to :class:`PriorityFifoPolicy`
    exactly.
    """

    name = "fair"

    def __init__(self, weights: dict[str, float] | None = None):
        self.weights = dict(weights or {})
        self._vtime: dict[str | None, float] = {}
        self._vclock = 0.0

    def weight(self, tenant: str | None) -> float:
        weight = self.weights.get(tenant, 1.0)
        return weight if weight > 0 else 1.0

    def select(self, pending):
        heads: dict[str | None, QueryTicket] = {}
        for ticket in pending:
            head = heads.get(ticket.tenant)
            if head is None or (-ticket.priority, ticket.seq) < (
                -head.priority, head.seq
            ):
                heads[ticket.tenant] = ticket
        # floor every backlogged tenant at the virtual clock: idle
        # periods do not accumulate catch-up credit
        for tenant in heads:
            stored = self._vtime.get(tenant)
            if stored is None or stored < self._vclock:
                self._vtime[tenant] = self._vclock
        chosen = min(
            heads,
            key=lambda tenant: (self._vtime[tenant], heads[tenant].seq),
        )
        self._vclock = self._vtime[chosen]
        self._vtime[chosen] += 1.0 / self.weight(chosen)
        return heads[chosen]


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class AdmissionTicket:
    """One query's place in the admission queue."""

    __slots__ = ("seq", "nbytes", "priority", "tenant", "state")

    def __init__(self, seq: int, nbytes: int, priority: int,
                 tenant: str | None = None):
        self.seq = seq
        self.nbytes = nbytes
        self.priority = priority
        self.tenant = tenant
        self.state = "waiting"  # 'admitted' | 'cancelled' | 'released'


class AdmissionController:
    """Reservations of modelled HBM, FIFO-fair within a priority.

    A reservation is a query's preload working set; the sum of live
    reservations never exceeds ``capacity_bytes`` (``high_water``
    records the proven maximum).  Waiters are served strictly in
    ``(priority desc, arrival)`` order (``order='arrival'`` drops the
    priority key — the fair-share engine's choice, since its dequeue
    order already encodes the policy) — head-of-line, so a large query
    is never starved by smaller late arrivals.  Cancellation (explicit
    or by timeout) always removes the waiter or releases the
    reservation; nothing leaks.

    ``budgets`` maps tenant names to :class:`TenantBudget` limits.  A
    waiter whose tenant is at its HBM quota or in-flight cap is simply
    *ineligible* — it never becomes the head, so it waits without
    blocking other tenants' admissions.
    """

    def __init__(
        self,
        capacity_bytes: int,
        budgets: dict[str, TenantBudget] | None = None,
        order: str = "priority",
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if order not in ("priority", "arrival"):
            raise ValueError(f"unknown admission order {order!r}")
        self.capacity = capacity_bytes
        self.budgets = dict(budgets or {})
        self.order = order
        self.in_use = 0
        self.high_water = 0
        self.admitted_count = 0
        self.cancelled_count = 0
        self._cond = threading.Condition()
        self._seq = 0
        self._waiters: list[AdmissionTicket] = []

    def enqueue(self, nbytes: int, priority: int = 0,
                tenant: str | None = None) -> AdmissionTicket:
        """Join the admission queue (position is assigned here).

        Raises:
            AdmissionError: the request can never fit on the device,
                or can never fit inside its tenant's HBM quota.
        """
        if nbytes > self.capacity:
            raise AdmissionError(
                f"working set {nbytes} B exceeds device capacity "
                f"{self.capacity} B"
            )
        budget = self.budgets.get(tenant) if tenant is not None else None
        if (
            budget is not None
            and budget.quota_bytes is not None
            and nbytes > budget.quota_bytes
        ):
            raise AdmissionError(
                f"working set {nbytes} B exceeds tenant {tenant!r} "
                f"HBM quota {budget.quota_bytes} B"
            )
        with self._cond:
            ticket = AdmissionTicket(self._seq, nbytes, priority, tenant)
            self._seq += 1
            self._waiters.append(ticket)
            # a new arrival can be the head (higher priority): wake waiters
            self._cond.notify_all()
            return ticket

    def _budget(self, ticket: AdmissionTicket) -> TenantBudget | None:
        if ticket.tenant is None:
            return None
        return self.budgets.get(ticket.tenant)

    def _eligible(self, ticket: AdmissionTicket) -> bool:
        """Whether the ticket's tenant limits permit admission now."""
        budget = self._budget(ticket)
        if budget is None:
            return True
        if (
            budget.quota_bytes is not None
            and budget.in_use + ticket.nbytes > budget.quota_bytes
        ):
            return False
        if (
            budget.max_in_flight is not None
            and budget.in_flight >= budget.max_in_flight
        ):
            return False
        return True

    def _key(self, waiter: AdmissionTicket):
        if self.order == "arrival":
            return (waiter.seq,)
        return (-waiter.priority, waiter.seq)

    def _head(self) -> AdmissionTicket | None:
        """The best *eligible* waiter — quota-blocked tenants step aside."""
        head = None
        for waiter in self._waiters:
            if not self._eligible(waiter):
                continue
            if head is None or self._key(waiter) < self._key(head):
                head = waiter
        return head

    def wait(
        self,
        ticket: AdmissionTicket,
        timeout: float | None = None,
        cancelled=None,
    ) -> AdmissionTicket:
        """Block until ``ticket`` is admitted.

        ``cancelled`` is an optional zero-argument callable polled on
        every wakeup (the engine passes the query's cancel flag).

        Raises:
            QueryCancelled: the ticket was cancelled while waiting.
            DeadlineExceeded: ``timeout`` elapsed first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if ticket.state == "cancelled" or (
                    cancelled is not None and cancelled()
                ):
                    self._drop(ticket)
                    raise QueryCancelled("admission wait cancelled")
                if (
                    ticket.state == "waiting"
                    and self._head() is ticket
                    and self.in_use + ticket.nbytes <= self.capacity
                ):
                    ticket.state = "admitted"
                    self._waiters.remove(ticket)
                    self.in_use += ticket.nbytes
                    if self.in_use > self.high_water:
                        self.high_water = self.in_use
                    self.admitted_count += 1
                    budget = self._budget(ticket)
                    if budget is not None:
                        budget.in_use += ticket.nbytes
                        budget.in_flight += 1
                        if budget.in_use > budget.peak_in_use:
                            budget.peak_in_use = budget.in_use
                        if budget.in_flight > budget.peak_in_flight:
                            budget.peak_in_flight = budget.in_flight
                        assert (
                            budget.quota_bytes is None
                            or budget.in_use <= budget.quota_bytes
                        )
                    assert self.in_use <= self.capacity
                    # the next waiter may fit beside this reservation
                    self._cond.notify_all()
                    return ticket
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._drop(ticket)
                        raise DeadlineExceeded(
                            "deadline passed while waiting for admission"
                        )
                self._cond.wait(remaining)

    def admit(
        self, nbytes: int, priority: int = 0, timeout: float | None = None,
        tenant: str | None = None,
    ) -> AdmissionTicket:
        """``enqueue`` + ``wait`` in one call."""
        return self.wait(self.enqueue(nbytes, priority, tenant), timeout)

    def _return_reservation(self, ticket: AdmissionTicket) -> None:
        """Give back an admitted ticket's bytes (caller holds the cond)."""
        self.in_use -= ticket.nbytes
        budget = self._budget(ticket)
        if budget is not None:
            budget.in_use -= ticket.nbytes
            budget.in_flight -= 1

    def release(self, ticket: AdmissionTicket) -> None:
        """Return an admitted reservation to the pool (idempotent)."""
        with self._cond:
            if ticket.state == "admitted":
                ticket.state = "released"
                self._return_reservation(ticket)
                self._cond.notify_all()

    def cancel(self, ticket: AdmissionTicket) -> None:
        """Cancel a waiter, or release an already-admitted reservation."""
        with self._cond:
            if ticket.state == "waiting":
                self._drop(ticket)
                self._cond.notify_all()
            elif ticket.state == "admitted":
                ticket.state = "cancelled"
                self._return_reservation(ticket)
                self._cond.notify_all()

    def tenant_usage(self) -> dict[str, dict]:
        """Live per-tenant budget usage (a consistent snapshot)."""
        with self._cond:
            return {
                name: budget.to_dict()
                for name, budget in sorted(self.budgets.items())
            }

    def _drop(self, ticket: AdmissionTicket) -> None:
        """Remove a waiter from the queue (caller holds the condition)."""
        if ticket.state == "waiting":
            ticket.state = "cancelled"
            self.cancelled_count += 1
            try:
                self._waiters.remove(ticket)
            except ValueError:
                pass

    @property
    def waiting(self) -> int:
        with self._cond:
            return len(self._waiters)


# ---------------------------------------------------------------------------
# the query handle
# ---------------------------------------------------------------------------

_TERMINAL = ("done", "rejected", "error", "cancelled")


class QueryTicket:
    """A submitted query: a future over both clocks.

    ``status`` walks ``queued -> waiting -> running ->`` one of
    ``done / rejected / error / cancelled``.  ``result`` is the
    :class:`~repro.core.executor.QueryResult` once done; the modelled
    placement (``stream``, ``start_ns``, ``duration_ns``,
    ``queue_wait_ns``) and the wall clock (``wall_wait_s`` submit to
    device, ``wall_run_s`` on the device) are both recorded.
    """

    def __init__(self, seq: int, sql: str, mode: str | None,
                 priority: int, deadline: float | None,
                 tenant: str | None = None, trace: bool = False):
        self.seq = seq
        self.sql = sql
        self.mode = mode
        self.priority = priority
        self.deadline = deadline  # absolute time.monotonic() or None
        self.tenant = tenant
        self.trace = trace
        self.status = "queued"
        self.detail = ""
        self.outcome = ""         # terminal SLO class, set by _finish
        self.result: QueryResult | None = None
        self.plan_cache_hit = False
        self.working_set_bytes = 0
        self.worker: int | None = None
        self.stream: int | None = None
        self.start_ns = 0.0
        self.duration_ns = 0.0
        self.queue_wait_ns = 0.0
        self.wall_submit_s = time.perf_counter()
        self.wall_dequeue_s: float | None = None
        self.wall_admitted_s: float | None = None
        self.wall_start_s: float | None = None
        self.wall_end_s: float | None = None
        self.trace_payload: dict | None = None
        self.flight_record: dict | None = None
        self._event = threading.Event()
        self._cancel = False
        self._engine: "AsyncEngine | None" = None
        self._admission: AdmissionTicket | None = None

    @property
    def wall_wait_s(self) -> float:
        if self.wall_start_s is None:
            return 0.0
        return self.wall_start_s - self.wall_submit_s

    @property
    def wall_run_s(self) -> float:
        if self.wall_start_s is None or self.wall_end_s is None:
            return 0.0
        return self.wall_end_s - self.wall_start_s

    def done(self) -> bool:
        return self.status in _TERMINAL

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the query is terminal; False on timeout."""
        return self._event.wait(timeout)

    def cancel(self) -> bool:
        """Best-effort cancellation; True if the query will not run.

        A query already executing on the device cannot be stopped (the
        modelled run is one Python call); cancelling it returns False.
        """
        engine = self._engine
        if engine is None:
            return False
        with engine._work:
            if self.status in ("queued", "waiting"):
                self._cancel = True
                admission = self._admission
            else:
                return False
        if admission is not None:
            engine._admission.cancel(admission)
        # wake the admission waiters so the cancel flag is observed even
        # when the ticket never enqueued for admission
        with engine._admission._cond:
            engine._admission._cond.notify_all()
        return True


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class AsyncEngine:
    """Query execution over one shared EngineSession.

    One worker thread per modelled stream pulls from the bounded
    submission queue, plans concurrently, reserves HBM through the
    :class:`AdmissionController`, and executes under the session lock.
    With ``autostart=False`` no thread runs and :meth:`run_batch`
    drains the queue on the calling thread instead — same policy,
    admission, checkpoints and accounting, deterministic placement.
    ``guard=`` installs a :class:`~repro.serve.threadguard.ThreadGuard`
    over the session's device state for race detection in tests.

    ``policy`` selects the dequeue order: ``'priority'`` (the
    historical priority-FIFO) or ``'fair'`` (weighted fair queueing
    over tenants; ``tenant_weights`` maps tenant name to share).
    ``tenant_budgets`` maps tenant names to :class:`TenantBudget`
    admission limits enforced by the controller.
    """

    POLICIES = ("priority", "fair")

    def __init__(
        self,
        session: EngineSession,
        workers: int = 2,
        queue_capacity: int = 64,
        guard=None,
        autostart: bool = True,
        policy: str = "priority",
        tenant_budgets: dict[str, TenantBudget] | None = None,
        tenant_weights: dict[str, float] | None = None,
        slo_objectives: dict[str, SLObjective] | None = None,
        slo_default: SLObjective | None = None,
        flight_recorder_capacity: int = 1024,
    ):
        if queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {self.POLICIES}"
            )
        self.session = session
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.slo = SLOTracker(
            slo_objectives, default=slo_default, metrics=session.metrics,
        )
        self.flight_recorder = FlightRecorder(flight_recorder_capacity)
        self._policy = (
            FairSharePolicy(tenant_weights) if policy == "fair"
            else PriorityFifoPolicy()
        )
        # under fair share the dequeue order *is* the policy; the
        # admission queue must not re-sort it by priority
        self._admission = AdmissionController(
            session.device_capacity_bytes,
            budgets=tenant_budgets,
            order="arrival" if policy == "fair" else "priority",
        )
        self._tenant_accounts: dict[str | None, TenantAccount] = {}
        self._work = threading.Condition()
        self._pending: list[QueryTicket] = []
        self._tickets: list[QueryTicket] = []
        self._seq = 0
        self._outstanding = 0
        self._accepting = True
        self._stop = False
        self._service_ema_s: float | None = None
        # modelled placement, guarded by the session lock (only the
        # executing worker touches it)
        self._timeline = StreamTimeline(
            workers, session.device_capacity_bytes
        )
        self.guard = guard
        if guard is not None:
            guard.install_session(session)
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"repro-worker-{i}", daemon=True,
            )
            for i in range(workers)
        ]
        self._started = False
        if autostart:
            self.start()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for thread in self._threads:
            thread.start()

    def __enter__(self) -> "AsyncEngine":
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        self.shutdown(drain=exc_type is None)
        return False

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted query is terminal.

        Returns False if ``timeout`` elapsed first (queries may still
        be running — this is the stress tests' deadlock detector).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work:
            while self._outstanding > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                if not self._work.wait(remaining):
                    return False
            return True

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the workers (idempotent).

        ``drain=True`` first waits for accepted work; ``drain=False``
        cancels everything still queued.  Either way no ticket is left
        non-terminal and the worker threads are joined.
        """
        with self._work:
            self._accepting = False
        if drain and self._started:
            self.drain(timeout)
        with self._work:
            abandoned, self._pending = self._pending, []
            self._stop = True
            self._work.notify_all()
        for ticket in abandoned:
            self._finish(ticket, "cancelled", detail="engine shut down")
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout)
        if self.guard is not None:
            self.guard.uninstall()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        sql: str,
        mode: str | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
        tenant: str | None = None,
        trace: bool = False,
    ) -> QueryTicket:
        """Enqueue a statement; returns its ticket.

        ``trace=True`` gives this one query a private tracer for the
        device run and attaches the resulting span tree (wall phases +
        modelled engine spans) to ``ticket.trace_payload``.

        Raises:
            BackpressureError: the bounded queue is full; the error
                carries a ``retry_after_s`` estimate.
            RuntimeError: the engine is shut down.
        """
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        try:
            with self._work:
                if not self._accepting:
                    raise RuntimeError("engine is shut down")
                if len(self._pending) >= self.queue_capacity:
                    raise BackpressureError(
                        len(self._pending), self._retry_after_locked()
                    )
                ticket = QueryTicket(
                    self._seq, sql, mode, priority, deadline, tenant, trace,
                )
                ticket._engine = self
                self._seq += 1
                self._pending.append(ticket)
                self._tickets.append(ticket)
                self._outstanding += 1
                self._account_locked(tenant).submitted += 1
                self._work.notify()
                return ticket
        except BackpressureError:
            # backpressure burns the tenant's error budget too — the
            # tracker's lock sits below the queue lock, so note it here
            self.slo.note_backpressure(tenant or "default")
            raise

    def submit_all(self, statements) -> list[QueryTicket]:
        return [self.submit(sql) for sql in statements]

    def run_batch(
        self, statements, timeout: float | None = None,
    ) -> WorkloadReport | None:
        """Submit a closed batch and see it through; returns the report.

        A started engine waits for its workers — ``None`` if they do
        not drain within ``timeout``.  An engine built with
        ``autostart=False`` serves everything pending on the calling
        thread (``timeout`` has nothing to bound) and places each
        query on the earliest-free modelled stream.
        """
        self.submit_all(statements)
        if not self._started:
            while (ticket := self._next_ticket(block=False)) is not None:
                self._serve(ticket, None)
        elif not self.drain(timeout):
            return None
        return self.report()

    def _retry_after_locked(self) -> float:
        # `is None` — a genuine measured EMA of 0.0 (sub-resolution
        # services) must not be mistaken for "no sample yet"
        service = self._service_ema_s if self._service_ema_s is not None else 0.05
        return max(0.001, len(self._pending) * service / self.workers)

    # -- the worker ------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        while (ticket := self._next_ticket()) is not None:
            self._serve(ticket, worker_id)

    def _serve(self, ticket: QueryTicket, worker_id: int | None) -> None:
        """Take one dequeued ticket to a terminal state.

        ``worker_id`` is the calling worker's (and so the modelled
        stream's) id, or ``None`` on the inline drain.
        """
        try:
            self._run_ticket(ticket, worker_id)
        except BaseException as exc:  # never leave a ticket dangling
            if not ticket.done():
                self._finish(
                    ticket, "error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            if not isinstance(exc, Exception):
                raise  # an interrupt or exit still unwinds its thread

    def _next_ticket(self, block: bool = True) -> QueryTicket | None:
        with self._work:
            while True:
                if self._pending:
                    best = self._policy.select(self._pending)
                    self._pending.remove(best)
                    best.status = "waiting"
                    self._note_picked_locked(best)
                    return best
                if self._stop or not block:
                    return None
                self._work.wait()

    def _account_locked(self, tenant: str | None) -> TenantAccount:
        account = self._tenant_accounts.get(tenant)
        if account is None:
            account = TenantAccount(tenant or "default")
            self._tenant_accounts[tenant] = account
        return account

    def _note_picked_locked(self, ticket: QueryTicket) -> None:
        """Record dequeue waits and starvation ages (holds ``_work``).

        The picked ticket's submit-to-dequeue wait updates its
        tenant's ``max_starvation_s``; tenants still waiting get their
        oldest pending age published as the live
        ``qos.tenant.<name>.starvation_age_s`` gauge.
        """
        now = time.perf_counter()
        ticket.wall_dequeue_s = now
        wait_s = now - ticket.wall_submit_s
        account = self._account_locked(ticket.tenant)
        if wait_s > account.max_starvation_s:
            account.max_starvation_s = wait_s
        metrics = self.session.metrics
        if metrics is None:
            return
        oldest: dict[str | None, float] = {}
        for pending in self._pending:
            submitted = oldest.get(pending.tenant)
            if submitted is None or pending.wall_submit_s < submitted:
                oldest[pending.tenant] = pending.wall_submit_s
        if ticket.tenant not in oldest:
            oldest[ticket.tenant] = now  # tenant's backlog just drained
        for tenant, submitted in oldest.items():
            metrics.gauge(
                f"qos.tenant.{tenant or 'default'}.starvation_age_s"
            ).set(now - submitted)

    def _run_ticket(self, ticket: QueryTicket, worker_id: int | None) -> None:
        session = self.session
        if ticket._cancel:
            self._finish(ticket, "cancelled", detail="cancelled while queued")
            return
        if ticket.deadline is not None and time.monotonic() > ticket.deadline:
            self._finish(
                ticket, "cancelled", detail="deadline passed while queued",
            )
            return
        # planning runs concurrently across workers: only the plan
        # cache's own lock and the read-only catalog are involved
        try:
            prepared, hit = session.lookup_or_prepare(ticket.sql, ticket.mode)
            ticket.working_set_bytes = session.working_set_bytes(prepared)
            admission = self._admission.enqueue(
                ticket.working_set_bytes, ticket.priority, ticket.tenant,
            )
        except AdmissionError as exc:
            self._finish(ticket, "rejected", detail=str(exc))
            return
        except ReproError as exc:
            self._finish(
                ticket, "error", detail=f"{type(exc).__name__}: {exc}",
            )
            return
        ticket._admission = admission
        timeout = None
        if ticket.deadline is not None:
            timeout = max(0.0, ticket.deadline - time.monotonic())
        try:
            self._admission.wait(
                admission, timeout=timeout, cancelled=lambda: ticket._cancel,
            )
        except DeadlineExceeded as exc:
            self._finish(ticket, "cancelled", detail=str(exc))
            return
        except QueryCancelled as exc:
            self._finish(ticket, "cancelled", detail=str(exc))
            return
        ticket.wall_admitted_s = time.perf_counter()
        try:
            self._execute(ticket, prepared, hit, worker_id)
        finally:
            self._admission.release(admission)

    def _execute(
        self,
        ticket: QueryTicket,
        prepared: PreparedQuery,
        plan_cache_hit: bool,
        worker_id: int | None,
    ) -> None:
        session = self.session
        # last cancellation checkpoint: the status flip to 'running'
        # shares the queue lock with QueryTicket.cancel, so a True
        # return from cancel() guarantees the device is never touched
        with self._work:
            if ticket._cancel:
                cancelled = True
            else:
                cancelled = False
                ticket.status = "running"
                ticket.worker = ticket.stream = worker_id
        if cancelled:
            self._finish(
                ticket, "cancelled", detail="cancelled before execution",
            )
            return
        ticket.wall_start_s = time.perf_counter()
        span_attrs = {
            "worker": worker_id, "stream": worker_id, "seq": ticket.seq,
        }
        # a traced query gets a *private* tracer: the shared session
        # tracer's span stack cannot be used across worker threads, and
        # the payload must hold exactly this query's spans
        query_tracer = None
        query_span = None
        if ticket.trace:
            query_tracer = Tracer()
            query_span = query_tracer.begin(
                "query", "query",
                seq=ticket.seq, tenant=ticket.tenant or "default",
                worker=worker_id, stream=worker_id,
            )
        try:
            with session.lock:
                result = session.run(
                    prepared,
                    plan_cache_hit=plan_cache_hit,
                    span_attrs=span_attrs,
                    tracer=query_tracer,
                )
                ticket.stream, ticket.start_ns, ticket.duration_ns = (
                    self._timeline.place(
                        ticket.working_set_bytes, result, worker_id,
                    )
                )
                ticket.queue_wait_ns = ticket.start_ns
            ticket.wall_end_s = time.perf_counter()
        finally:
            if query_tracer is not None:
                if query_span is not None:
                    query_tracer.end(
                        query_span, plan_cache="hit" if plan_cache_hit
                        else "miss",
                    )
                query_tracer.finish()
                ticket.trace_payload = build_trace_payload(
                    ticket, query_tracer
                )
        ticket.result = result
        ticket.plan_cache_hit = plan_cache_hit
        self._finish(ticket, "done")

    @staticmethod
    def _classify_outcome(status: str, detail: str) -> str:
        if status == "done":
            return "ok"
        if status == "cancelled" and "deadline" in detail.lower():
            return "deadline"
        return status  # 'rejected' | 'cancelled' | 'error'

    def _finish(self, ticket: QueryTicket, status: str, detail: str = "") -> None:
        with self._work:
            ticket.status = status
            if detail:
                ticket.detail = detail
            ticket.outcome = self._classify_outcome(status, detail)
            if ticket.trace_payload is not None:
                ticket.trace_payload["query"]["status"] = status
            if ticket.wall_end_s is None:
                ticket.wall_end_s = time.perf_counter()
                if ticket.wall_start_s is None:
                    ticket.wall_start_s = ticket.wall_end_s
            if status == "done":
                run_s = ticket.wall_run_s
                self._service_ema_s = (
                    run_s if self._service_ema_s is None
                    else 0.8 * self._service_ema_s + 0.2 * run_s
                )
            account = self._account_locked(ticket.tenant)
            if status == "done":
                account.queries += 1
                account.rows += ticket.result.num_rows
                account.device_ns += ticket.result.stats.total_ns
                account.wall_s += ticket.wall_run_s
            elif status == "rejected":
                account.rejections += 1
            elif status == "cancelled":
                account.cancellations += 1
            elif status == "error":
                account.errors += 1
            self._outstanding -= 1
            latency_ms = (ticket.wall_end_s - ticket.wall_submit_s) * 1e3
        # SLO scoring and the flight record run outside the queue lock
        # (both own locks lower in the hierarchy); the ticket's terminal
        # fields are frozen, so there is no race to guard
        result = ticket.result
        query_class = (
            result.plan_choice if result is not None
            else (ticket.mode or "unknown")
        )
        self.slo.observe(
            ticket.tenant or "default", latency_ms,
            outcome=ticket.outcome, query_class=query_class,
        )
        ticket.flight_record = self._flight_record(
            ticket, latency_ms, query_class
        )
        self.flight_recorder.record(**ticket.flight_record)
        with self._work:
            ticket._event.set()
            self._work.notify_all()
        metrics = self.session.metrics
        if metrics is not None:
            if status == "done":
                metrics.counter("serve.queries.admitted").inc()
                metrics.counter(f"serve.stream.{ticket.stream}.queries").inc()
                metrics.histogram("serve.queue_wait_ms").observe(
                    ticket.queue_wait_ns / 1e6
                )
                metrics.histogram("serve.wall_run_ms").observe(
                    ticket.wall_run_s * 1e3
                )
            else:
                metrics.counter(f"serve.queries.{status}").inc()
            if ticket.tenant is not None:
                prefix = f"qos.tenant.{ticket.tenant}"
                if status == "done":
                    metrics.counter(f"{prefix}.queries").inc()
                    metrics.counter(f"{prefix}.rows").inc(
                        ticket.result.num_rows
                    )
                    metrics.counter(f"{prefix}.device_ns").inc(
                        ticket.result.stats.total_ns
                    )
                    metrics.histogram(f"{prefix}.wall_run_ms").observe(
                        ticket.wall_run_s * 1e3
                    )
                else:
                    metrics.counter(f"{prefix}.{status}").inc()

    def _flight_record(
        self, ticket: QueryTicket, latency_ms: float, query_class: str,
    ) -> dict:
        """One bounded forensic record for a terminal ticket."""
        record = {
            "seq": ticket.seq,
            "sql": ticket.sql if len(ticket.sql) <= 200
            else ticket.sql[:197] + "...",
            "tenant": ticket.tenant or "default",
            "mode": ticket.mode,
            "status": ticket.status,
            "outcome": ticket.outcome,
            "detail": ticket.detail,
            "priority": ticket.priority,
            "plan_cache_hit": ticket.plan_cache_hit,
            "working_set_bytes": ticket.working_set_bytes,
            "worker": ticket.worker,
            "stream": ticket.stream,
            "latency_ms": latency_ms,
            "queue_wait_ms": (
                (ticket.wall_dequeue_s - ticket.wall_submit_s) * 1e3
                if ticket.wall_dequeue_s is not None else None
            ),
            "admission_wait_ms": (
                (ticket.wall_admitted_s - ticket.wall_dequeue_s) * 1e3
                if ticket.wall_admitted_s is not None
                and ticket.wall_dequeue_s is not None else None
            ),
            "wall_run_ms": ticket.wall_run_s * 1e3,
        }
        result = ticket.result
        if result is not None:
            record.update(
                plan_mode=query_class,
                adaptive_switch=result.adaptive_switch,
                rows=result.num_rows,
                modelled_total_ms=result.stats.total_ns / 1e6,
            )
        if ticket.trace_payload is not None:
            roots = ticket.trace_payload.get("modelled", [])
            record["last_span_summary"] = [
                {
                    "name": node["name"],
                    "category": node["category"],
                    "duration_ms": (
                        (node.get("end_ns") or node["start_ns"])
                        - node["start_ns"]
                    ) / 1e6,
                    "children": len(node.get("children", ())),
                }
                for root in roots[-1:]
                for node in (root.get("children") or [root])
            ]
        return record

    # -- reporting -------------------------------------------------------

    def report(self) -> WorkloadReport:
        """The batch as a :class:`WorkloadReport` (one lane per stream),
        with wall-clock timings alongside the modelled ones on every
        entry."""
        with self._work:
            tickets = list(self._tickets)
            bus_ns = self._timeline.bus_ns
        report = WorkloadReport(streams=self.workers, bus_ns=bus_ns)
        for ticket in sorted(tickets, key=lambda t: t.seq):
            report.queries.append(ScheduledQuery(
                seq=ticket.seq,
                sql=ticket.sql,
                mode=ticket.mode,
                status=ticket.status if ticket.done() else "pending",
                stream=ticket.stream,
                start_ns=ticket.start_ns,
                duration_ns=ticket.duration_ns,
                queue_wait_ns=ticket.queue_wait_ns,
                working_set_bytes=ticket.working_set_bytes,
                plan_cache_hit=ticket.plan_cache_hit,
                detail=ticket.detail,
                result=ticket.result,
                wall_wait_ms=ticket.wall_wait_s * 1e3,
                wall_run_ms=ticket.wall_run_s * 1e3,
            ))
        metrics = self.session.metrics
        if metrics is not None and report.completed:
            metrics.gauge("serve.makespan_ms").set(report.makespan_ns / 1e6)
            metrics.gauge("serve.serial_ms").set(report.serial_ns / 1e6)
            metrics.gauge("serve.speedup").set(report.speedup)
            metrics.gauge("serve.queries_per_second").set(
                report.queries_per_second
            )
            metrics.gauge("serve.workers").set(self.workers)
        return report

    def tenant_stats(self) -> dict[str, dict]:
        """Per-tenant accounting, admission usage, and SLO state."""
        with self._work:
            accounts = {
                account.name: account.to_dict()
                for account in self._tenant_accounts.values()
            }
        usage = self._admission.tenant_usage()
        for name, budget in usage.items():
            accounts.setdefault(name, TenantAccount(name).to_dict())
            accounts[name]["budget"] = budget
        for name, slo in self.slo.snapshot().items():
            accounts.setdefault(name, TenantAccount(name).to_dict())
            accounts[name]["slo"] = slo
        return dict(sorted(accounts.items()))

    @property
    def queue_depth(self) -> int:
        with self._work:
            return len(self._pending)

    @property
    def admission(self) -> AdmissionController:
        return self._admission
