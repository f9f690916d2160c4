"""Planner: binding, logical plans, invariants, unnesting, rewrites."""

from .binder import Binder, BoundBlock, SubqueryDescriptor
from .builder import PlanBuilder
from .exchange import ExchangeStep
from .invariants import InvariantInfo, mark_invariants
from .nodes import explain
from .optimizer import prune_scan_columns, try_exists_semijoin

__all__ = [
    "Binder",
    "BoundBlock",
    "ExchangeStep",
    "InvariantInfo",
    "PlanBuilder",
    "SubqueryDescriptor",
    "explain",
    "mark_invariants",
    "prune_scan_columns",
    "try_exists_semijoin",
]
