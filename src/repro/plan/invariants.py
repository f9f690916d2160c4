"""Invariant component extraction (paper Section III-D, after [8]).

Inside a subquery plan, nodes whose result cannot change across
iterations of the outer loop are *invariant*; nodes touching a
correlated parameter are *transient*, and transience spreads upward.
The drive program evaluates maximal invariant subtrees once, before
the loop, and reuses their results (including pre-built join hash
tables) in every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expressions import PlanExpr, referenced_params
from .nodes import (
    Aggregate,
    DerivedScan,
    Distinct,
    Filter,
    Join,
    LeftLookup,
    Limit,
    Plan,
    Project,
    Scan,
    SemiJoin,
    Sort,
    SubqueryColumn,
    SubqueryFilter,
)


@dataclass
class InvariantInfo:
    """The result of marking one subquery plan.

    Attributes:
        transient: node-id -> True if the node depends on a parameter.
        hoisted_joins: ids of Join nodes with exactly one invariant
            child; their hash table is built once on the invariant
            side and probed by the transient side each iteration.
        invariant_roots: ids of maximal invariant subtrees under a
            transient parent — evaluated once, cached.
    """

    transient: dict[int, bool] = field(default_factory=dict)
    hoisted_joins: set[int] = field(default_factory=set)
    invariant_roots: set[int] = field(default_factory=set)

    def is_transient(self, node: Plan) -> bool:
        return self.transient.get(id(node), False)


def _exprs_of(node: Plan) -> list[PlanExpr]:
    if isinstance(node, Scan):
        return list(node.filters)
    if isinstance(node, Join):
        return [node.left_key, node.right_key]
    if isinstance(node, (Filter, SubqueryFilter)):
        return [node.predicate]
    if isinstance(node, SemiJoin):
        return [node.outer_key, node.inner_key]
    if isinstance(node, LeftLookup):
        return [node.outer_key, node.inner_key]
    if isinstance(node, Aggregate):
        exprs = list(node.groups)
        exprs += [a.arg for a in node.aggs if a.arg is not None]
        if node.having is not None:
            exprs.append(node.having)
        return exprs
    if isinstance(node, Project):
        return list(node.exprs)
    return []


def _node_has_params(node: Plan) -> bool:
    return any(referenced_params(e) for e in _exprs_of(node))


def mark_invariants(plan: Plan) -> InvariantInfo:
    """Mark a (subquery) plan's nodes transient/invariant.

    A :class:`SubqueryFilter` node is always transient when its nested
    block is itself correlated — handled by treating the node's own
    predicate params plus a conservative transient default for nested
    SUBQ filters.
    """
    info = InvariantInfo()
    if not _mark(plan, info):
        # the whole subquery is invariant (type-A/N): evaluate once
        info.invariant_roots.add(id(plan))
    return info


def _mark(node: Plan, info: InvariantInfo) -> bool:
    """Mark ``node``'s subtree; True if it is transient (not a cyclic closure)."""
    child_transient = [_mark(c, info) for c in node.children()]
    transient = _node_has_params(node) or any(child_transient)
    if isinstance(node, (SubqueryFilter, SubqueryColumn)):
        # nested subqueries correlated with *this* block make the
        # node transient; ones correlated only with outer blocks
        # also re-evaluate per outer iteration, so stay conservative
        transient = True
    info.transient[id(node)] = transient
    if isinstance(node, Join) and transient:
        left_transient = child_transient[0]
        right_transient = child_transient[1]
        if left_transient != right_transient:
            info.hoisted_joins.add(id(node))
    if not transient:
        return False
    # children that are invariant while this node is transient are
    # maximal invariant subtrees
    for child, is_transient in zip(node.children(), child_transient):
        if not is_transient:
            info.invariant_roots.add(id(child))
    return True
