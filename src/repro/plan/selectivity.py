"""Selectivity estimates for the optimizer, exact where it is cheap.

:func:`predicate_selectivity` is the one estimator: the plan builder's
join ordering, the flat-plan cost estimate and Figure 15's operator
check all call it.  Without an exact counter it guesses: ``=`` is one
over the distinct count, ranges are 0.35, everything else 0.5.  Those
guesses feed join ordering and — through ``estimate_flat_plan_ns`` — the auto-mode
nested-vs-unnested decision, so a wrong guess can stand behind the
slower path for a whole workload.

For the predicates that matter most (single-table, parameter-free,
pushed into scans) the truth is one counting scan away: evaluate the
predicate over the base table on the host and divide.  That is the
"exact selectivity at optimization time" idea (Heimel et al. in
PAPERS.md): optimization-time work linear in one column is cheap next
to a mispredicted execution.  The scan reuses the engine's own
expression evaluator over a throwaway device, so NULL semantics,
dictionary codes and compound predicates behave exactly as they will
at execution time — the count cannot disagree with the engine.

Results are kept per predicate fingerprint on the immutable ``Table``
the count was taken over (``Table.selectivities``), beside its distinct
counts: every engine on one catalog shares them, so a second engine
counts nothing.  ``Catalog.replace`` swaps that object, so a reloaded
table misses and its old entries go with the old object; every other
table's entries stay.  Anything unsupported —
correlated parameters, subquery operands, multi-binding predicates,
missing columns — falls back to the heuristics by returning ``None``.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import CatalogError
from ..storage import Table
from .expressions import (
    BoolOp,
    ColRef,
    Compare,
    InCodes,
    NotOp,
    PlanExpr,
    contains_subquery,
    referenced_bindings,
    referenced_columns,
    referenced_params,
)


class _ScratchContext:
    """The minimal context the expression evaluator needs: a device to
    charge.  Counting happens at optimization time and must never touch
    a query clock, so the device charges nothing."""

    def __init__(self):
        from ..gpu import DeviceSpec
        from ..gpu.device import ScratchDevice

        self.device = ScratchDevice(DeviceSpec.v100())


#: guards every ``Table.selectivities`` and the estimators' counters:
#: serving workers and engines plan concurrently
_LOCK = threading.Lock()


class ExactSelectivity:
    """Counting-scan selectivities kept on each immutable table.

    One instance is owned by the engine and shared by every
    :class:`~repro.plan.builder.PlanBuilder` it constructs (and by the
    flat-plan estimator).  The counts live on the tables, so every
    engine on one catalog pays each count once.
    """

    #: tables beyond this row count keep the heuristic estimate — the
    #: exact count would make optimization superlinear in data size
    MAX_ROWS = 5_000_000
    #: counts kept per table, least recently used dropped first: every
    #: distinct literal is a new predicate, and a table outlives engines
    PER_TABLE = 256

    def __init__(self, catalog, max_rows: int | None = None):
        self.catalog = catalog
        self.max_rows = self.MAX_ROWS if max_rows is None else max_rows
        self._ctx = _ScratchContext()
        # observability side channels: this estimator's lookups answered
        # from a table, and the counting scans it ran
        self.hits = 0
        self.computations = 0

    def __len__(self) -> int:
        """Counts kept on the catalog's current tables."""
        with _LOCK:
            return sum(len(table.selectivities) for table in self.catalog)

    def lookup(self, predicate: PlanExpr, table_name: str | None) -> float | None:
        """The exact selectivity, or ``None`` when unsupported."""
        if table_name is None:
            return None
        try:
            table = self.catalog.table(table_name)
        except CatalogError:
            return None
        if table.num_rows == 0 or table.num_rows > self.max_rows:
            return None
        key = repr(predicate)
        kept = table.selectivities
        with _LOCK:
            if key in kept:
                self.hits += 1
                kept[key] = value = kept.pop(key)  # now the most recent
                return value
        value = self._compute(predicate, table)  # None is kept too
        with _LOCK:
            kept.pop(key, None)
            kept[key] = value
            while len(kept) > self.PER_TABLE:
                del kept[next(iter(kept))]
            self.computations += 1
        return value

    # -- internals ------------------------------------------------------

    def _compute(self, predicate: PlanExpr, table: Table) -> float | None:
        if referenced_params(predicate) or contains_subquery(predicate):
            return None
        bindings = referenced_bindings(predicate)
        if len(bindings) != 1:
            return None
        binding = next(iter(bindings))
        columns = {
            expr.column
            for expr in referenced_columns(predicate)
            if expr.binding == binding
        }
        names = set(table.column_names)
        if not columns or not columns <= names:
            return None
        from ..engine.exprs import evaluate
        from ..engine.relation import Relation

        rel = Relation.from_table(table, binding, sorted(columns))
        try:
            mask = evaluate(predicate, rel, self._ctx, None)
        except Exception:
            # a predicate the evaluator cannot count (shouldn't happen
            # for bound scan filters) keeps the heuristic estimate —
            # never fail planning over an estimation shortcut
            return None
        if isinstance(mask, np.ndarray):
            count = int(np.count_nonzero(mask.astype(bool)))
        else:
            count = table.num_rows if mask else 0
        return count / table.num_rows


def predicate_selectivity(
    catalog, predicate: PlanExpr, table_name: str | None, exact=None,
) -> float:
    """A selectivity estimate for join ordering and costing.

    With an :class:`ExactSelectivity` estimator as ``exact``, supported
    predicates (single-table, parameter-free) are counted exactly —
    including compound predicates, whose conjunct correlation the
    heuristic product below cannot see.  Everything else keeps the
    coarse guesses.
    """
    if exact is not None:
        counted = exact.lookup(predicate, table_name)
        if counted is not None:
            return counted
    if isinstance(predicate, BoolOp):
        left = predicate_selectivity(catalog, predicate.left, table_name, exact)
        right = predicate_selectivity(catalog, predicate.right, table_name, exact)
        return left * right if predicate.op == "and" else min(1.0, left + right)
    if isinstance(predicate, NotOp):
        return 1.0 - predicate_selectivity(
            catalog, predicate.operand, table_name, exact
        )
    if isinstance(predicate, InCodes):
        base = 0.2
        operand = predicate.operand
        if isinstance(operand, ColRef) and table_name is not None:
            distinct = catalog.table(table_name).distinct_count(operand.column)
            base = len(predicate.codes) / distinct
        return 1.0 - base if predicate.negated else base
    if isinstance(predicate, Compare):
        if predicate.op == "=":
            operand = predicate.left if isinstance(predicate.left, ColRef) else predicate.right
            if isinstance(operand, ColRef) and table_name is not None:
                return 1.0 / catalog.table(table_name).distinct_count(operand.column)
            return 0.05
        if predicate.op == "!=":
            return 0.9
        return 0.35
    return 0.5
