"""Exact single-table selectivities for the optimizer.

``PlanBuilder._selectivity`` guesses: ``=`` is one over the distinct
count, ranges are 0.35, everything else 0.5.  Those guesses feed join
ordering and — through ``estimate_flat_plan_ns`` — the auto-mode
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

Results are cached per predicate fingerprint under the immutable
``Table`` the count was taken over.  ``Catalog.replace`` swaps that
object, so a reloaded table misses and its old entries go with the old
object; every other table's entries stay.  Anything unsupported —
correlated parameters, subquery operands, multi-binding predicates,
missing columns — falls back to the heuristics by returning ``None``.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from ..errors import CatalogError
from ..storage import Table
from .expressions import (
    PlanExpr,
    contains_subquery,
    referenced_bindings,
    referenced_columns,
    referenced_params,
)


class _ScratchContext:
    """The minimal context the expression evaluator needs: a device to
    charge.  The charges land on a private throwaway device — counting
    happens at optimization time and must never touch a query clock."""

    def __init__(self):
        from ..gpu import Device, DeviceSpec

        self.device = Device(DeviceSpec.v100())


class ExactSelectivity:
    """Counting-scan selectivities cached per immutable table.

    One instance is owned by the engine and shared by every
    :class:`~repro.plan.builder.PlanBuilder` it constructs (and by the
    flat-plan estimator), so a served workload pays each count once.
    The cache is internally locked: serving workers plan concurrently.
    """

    #: tables beyond this row count keep the heuristic estimate — the
    #: exact count would make optimization superlinear in data size
    MAX_ROWS = 5_000_000

    def __init__(self, catalog, max_rows: int | None = None):
        self.catalog = catalog
        self.max_rows = self.MAX_ROWS if max_rows is None else max_rows
        self._lock = threading.Lock()
        self._cache: weakref.WeakKeyDictionary[Table, dict[str, float]] = (
            weakref.WeakKeyDictionary()
        )
        self._ctx = _ScratchContext()
        # observability side channels
        self.hits = 0
        self.computations = 0

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._cache.values())

    def lookup(self, predicate: PlanExpr, table_name: str | None) -> float | None:
        """The exact selectivity, or ``None`` when unsupported."""
        if table_name is None:
            return None
        try:
            table = self.catalog.table(table_name)
        except CatalogError:
            return None
        key = repr(predicate)
        with self._lock:
            cached = self._cache.get(table, {}).get(key)
            if cached is not None:
                self.hits += 1
                return cached
        value = self._compute(predicate, table)
        if value is None:
            return None
        with self._lock:
            self._cache.setdefault(table, {})[key] = value
            self.computations += 1
        return value

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self),
                "hits": self.hits,
                "computations": self.computations,
            }

    # -- internals ------------------------------------------------------

    def _compute(self, predicate: PlanExpr, table: Table) -> float | None:
        if referenced_params(predicate) or contains_subquery(predicate):
            return None
        bindings = referenced_bindings(predicate)
        if len(bindings) != 1:
            return None
        binding = next(iter(bindings))
        if table.num_rows == 0 or table.num_rows > self.max_rows:
            return None
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
