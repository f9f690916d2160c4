"""The serving layer: sessions, plan caching, and modelled streams.

One :class:`EngineSession` owns the simulated device for its whole
lifetime; the :class:`AsyncEngine` drains a submission queue over it
with admission control, deadlines and backpressure — on a worker pool
(one thread per modelled stream) or, with no threads at all, on the
calling thread — and places every executed query on the modelled
stream timeline.  See :mod:`repro.serve.session`,
:mod:`repro.serve.concurrent` and :mod:`repro.serve.scheduler` for
the model, and ``python -m repro.cli serve`` for the command-line
entry.
"""

from .concurrent import (
    AdmissionController,
    AsyncEngine,
    BackpressureError,
    DeadlineExceeded,
    FairSharePolicy,
    PriorityFifoPolicy,
    QueryCancelled,
    QueryTicket,
    SchedulingPolicy,
    TenantAccount,
    TenantBudget,
)
from .plancache import PlanCache, normalize_sql
from .scheduler import (
    PAPER_MIX,
    AdmissionError,
    ScheduledQuery,
    WorkloadReport,
    paper_mix_statements,
    split_statements,
)
from .session import EngineSession, SessionPrepared, render_param
from .threadguard import ConcurrencyViolation, OwnedLock, ThreadGuard

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AsyncEngine",
    "BackpressureError",
    "ConcurrencyViolation",
    "DeadlineExceeded",
    "EngineSession",
    "FairSharePolicy",
    "OwnedLock",
    "PriorityFifoPolicy",
    "QueryCancelled",
    "QueryTicket",
    "SchedulingPolicy",
    "TenantAccount",
    "TenantBudget",
    "ThreadGuard",
    "PAPER_MIX",
    "PlanCache",
    "ScheduledQuery",
    "SessionPrepared",
    "WorkloadReport",
    "normalize_sql",
    "paper_mix_statements",
    "render_param",
    "split_statements",
]
