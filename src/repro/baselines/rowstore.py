"""A Volcano-style iterator engine (paper Figure 2).

This is the paper's reference picture of the nested method on CPU: a
tuple-at-a-time ``open()/getNext()/close()`` pipeline in which a
correlated subquery is just a function call re-evaluated for every
tuple the outer operator produces.  It exists for fidelity and as an
independent correctness oracle — the columnar engines never share code
with it — and it models single-threaded CPU time by charging a fixed
cost per ``getNext()`` call.

Only the nested method is implemented here (that is the point of
Figure 2); use the columnar engines for unnested execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ExecutionError
from ..plan.binder import Binder, BoundBlock, SubqueryDescriptor
from ..plan.expressions import (
    AggRef,
    Arith,
    BoolOp,
    ColRef,
    Compare,
    Const,
    InCodes,
    NotOp,
    ParamRef,
    PlanExpr,
    SubqueryRef,
)
from ..sql import parse
from ..storage import Catalog

# modelled single-thread iterator costs (ns)
GET_NEXT_NS = 95.0
OPEN_NS = 400.0


@dataclass
class IteratorStats:
    """Modelled cost accounting for one query."""

    get_next_calls: int = 0
    opens: int = 0
    subquery_evaluations: int = 0

    @property
    def total_ms(self) -> float:
        return (self.get_next_calls * GET_NEXT_NS + self.opens * OPEN_NS) / 1e6


class Row(dict):
    """A tuple: qualified column name -> Python-domain value."""


class Iterator:
    """Base class of the Volcano operators."""

    def __init__(self, stats: IteratorStats):
        self.stats = stats

    def open(self) -> None:
        self.stats.opens += 1

    def get_next(self) -> Row | None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _tick(self) -> None:
        self.stats.get_next_calls += 1


class TableScanIter(Iterator):
    """Full scan of a base table with residual predicates."""

    def __init__(self, stats, catalog, table_name, binding, predicates, context):
        super().__init__(stats)
        self.table = catalog.table(table_name)
        self.binding = binding
        self.predicates = predicates
        self.context = context
        self._position = 0
        self._columns = [
            (f"{binding}.{c.name}", c.data) for c in self.table.columns
        ]

    def open(self) -> None:
        super().open()
        self._position = 0

    def get_next(self) -> Row | None:
        while self._position < self.table.num_rows:
            self._tick()
            row = Row(
                (name, data[self._position]) for name, data in self._columns
            )
            self._position += 1
            if all(
                self.context.evaluate(p, row) for p in self.predicates
            ):
                return row
        return None


class FilterIter(Iterator):
    def __init__(self, stats, child: Iterator, predicate, context):
        super().__init__(stats)
        self.child = child
        self.predicate = predicate
        self.context = context

    def open(self) -> None:
        super().open()
        self.child.open()

    def get_next(self) -> Row | None:
        while True:
            self._tick()
            row = self.child.get_next()
            if row is None:
                return None
            if self.context.evaluate(self.predicate, row):
                return row


class AggregateIter(Iterator):
    """Blocking (scalar or grouped) aggregation."""

    def __init__(self, stats, child, groups, aggs, having, context):
        super().__init__(stats)
        self.child = child
        self.groups = groups
        self.aggs = aggs
        self.having = having
        self.context = context
        self._results: list[Row] | None = None
        self._position = 0

    def open(self) -> None:
        super().open()
        self.child.open()
        buckets: dict[tuple, list[Row]] = {}
        while True:
            row = self.child.get_next()
            if row is None:
                break
            key = tuple(
                self.context.evaluate(g, row) for g in self.groups
            )
            buckets.setdefault(key, []).append(row)
        if not self.groups and not buckets:
            buckets[()] = []
        self._results = []
        for key, rows in buckets.items():
            out = Row()
            for group, value in zip(self.groups, key):
                if isinstance(group, ColRef):
                    out[group.qual] = value
            for spec in self.aggs:
                out[spec.name] = self._aggregate(spec, rows)
            if self.having is None or self.context.evaluate(self.having, out):
                self._results.append(out)
        self._position = 0

    def _aggregate(self, spec, rows: list[Row]):
        if spec.op == "count" and spec.arg is None:
            return float(len(rows))
        values = [self.context.evaluate(spec.arg, row) for row in rows]
        if spec.distinct:
            values = list(set(values))
        if spec.op == "count":
            return float(len(values))
        if not values:
            return float("nan")
        if spec.op == "min":
            return float(min(values))
        if spec.op == "max":
            return float(max(values))
        if spec.op == "sum":
            return float(sum(values))
        if spec.op == "avg":
            return float(sum(values)) / len(values)
        raise ExecutionError(f"unknown aggregate {spec.op!r}")

    def get_next(self) -> Row | None:
        self._tick()
        assert self._results is not None, "open() before get_next()"
        if self._position >= len(self._results):
            return None
        row = self._results[self._position]
        self._position += 1
        return row


class RowstoreContext:
    """Expression evaluation plus the paper's ``subquery(...)`` call."""

    def __init__(self, catalog: Catalog, stats: IteratorStats):
        self.catalog = catalog
        self.stats = stats
        self.subquery_pipelines: dict[int, "SubqueryPipeline"] = {}

    def evaluate(self, expr: PlanExpr, row: Row):
        if isinstance(expr, ColRef):
            return row[expr.qual]
        if isinstance(expr, ParamRef):
            return row[expr.qual]
        if isinstance(expr, AggRef):
            return row[expr.name]
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Compare):
            left = self.evaluate(expr.left, row)
            right = self.evaluate(expr.right, row)
            if left is None or right is None or _is_nan(left) or _is_nan(right):
                return None  # UNKNOWN — falsy, so WHERE drops the row
            return {
                "=": left == right, "!=": left != right,
                "<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right,
            }[expr.op]
        if isinstance(expr, BoolOp):
            # Kleene three-valued AND/OR; None is UNKNOWN.
            left = _tvl(self.evaluate(expr.left, row))
            if expr.op == "and":
                if left is False:
                    return False
                right = _tvl(self.evaluate(expr.right, row))
                if right is False:
                    return False
                return None if (left is None or right is None) else True
            if left is True:
                return True
            right = _tvl(self.evaluate(expr.right, row))
            if right is True:
                return True
            return None if (left is None or right is None) else False
        if isinstance(expr, NotOp):
            value = _tvl(self.evaluate(expr.operand, row))
            return None if value is None else not value
        if isinstance(expr, InCodes):
            operand = self.evaluate(expr.operand, row)
            if expr.codes and (operand is None or _is_nan(operand)):
                return None  # NULL IN (non-empty list) is UNKNOWN
            if operand in expr.codes:
                return not expr.negated
            if any(_is_nan(code) for code in expr.codes):
                return None  # the NULL in the list might have matched
            return expr.negated
        if isinstance(expr, Arith):
            left = self.evaluate(expr.left, row)
            right = self.evaluate(expr.right, row)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right == 0:
                return math.nan  # SQL NULL on division by zero
            return left / right
        if isinstance(expr, SubqueryRef):
            # Figure 2: the subquery is simply called per tuple
            return self.subquery_pipelines[id(expr)].evaluate(row)
        raise ExecutionError(f"rowstore cannot evaluate {expr!r}")


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _tvl(value):
    """Normalize an evaluated predicate to three-valued True/False/None."""
    return None if value is None else bool(value)


class SubqueryPipeline:
    """One correlated subquery, re-built and re-run per outer tuple."""

    def __init__(self, context, descriptor: SubqueryDescriptor):
        self.context = context
        self.descriptor = descriptor

    def evaluate(self, outer_row: Row):
        self.context.stats.subquery_evaluations += 1
        iterator = build_block_iterator(
            self.context, self.descriptor.block, outer_row
        )
        iterator.open()
        descriptor = self.descriptor
        if descriptor.kind == "exists":
            found = iterator.get_next() is not None
            return found != descriptor.negated
        if descriptor.kind == "in":
            # Three-valued membership: TRUE on a match, FALSE when the
            # result set is empty, UNKNOWN (None) when there is no match
            # but the probe is NULL or the set contains a NULL.
            operand = self.context.evaluate(descriptor.in_operand, outer_row)
            member = False
            saw_null = False
            empty = True
            while True:
                row = iterator.get_next()
                if row is None:
                    break
                empty = False
                value = next(iter(row.values()))
                if _is_nan(value):
                    saw_null = True
                elif value == operand:
                    member = True
                    break
            if member:
                return not descriptor.negated
            if empty:
                return descriptor.negated
            if saw_null or _is_nan(operand):
                return None
            return descriptor.negated
        row = iterator.get_next()
        if row is None:
            return float("nan")
        return next(iter(row.values()))


class ProjectIter(Iterator):
    def __init__(self, stats, child, exprs, names, context):
        super().__init__(stats)
        self.child = child
        self.exprs = exprs
        self.names = names
        self.context = context

    def open(self) -> None:
        super().open()
        self.child.open()

    def get_next(self) -> Row | None:
        self._tick()
        row = self.child.get_next()
        if row is None:
            return None
        return Row(
            (name, self.context.evaluate(expr, row))
            for name, expr in zip(self.names, self.exprs)
        )


def build_block_iterator(
    context: RowstoreContext, block: BoundBlock, outer_row: Row | None = None
) -> Iterator:
    """Assemble the iterator pipeline for one query block.

    Correlated parameters are satisfied by seeding every scan's rows
    with the outer row's bindings (how a Subplan receives its params).
    """
    stats = context.stats
    for descriptor in block.subqueries:
        for conjunct in block.conjuncts + list(block.select_exprs) + (
            [block.having] if block.having is not None else []
        ):
            for node in conjunct.walk() if conjunct is not None else ():
                if isinstance(node, SubqueryRef) and node.index == descriptor.index:
                    context.subquery_pipelines[id(node)] = SubqueryPipeline(
                        context, descriptor
                    )

    iterator: Iterator | None = None
    for table in block.tables:
        if table.is_derived:
            raise ExecutionError("the rowstore engine does not take derived tables")
        scan = TableScanIter(
            stats, context.catalog, table.table, table.binding, [], context
        )
        seeded = _SeededIter(stats, scan, outer_row)
        iterator = seeded if iterator is None else _CrossIter(stats, iterator, seeded)
    if iterator is None:
        raise ExecutionError("query block has no FROM tables")
    for conjunct in block.conjuncts:
        iterator = FilterIter(stats, iterator, conjunct, context)
    if block.is_aggregate:
        iterator = AggregateIter(
            stats, iterator, block.group_keys, block.aggs, block.having, context
        )
    return ProjectIter(
        stats, iterator, list(block.select_exprs), list(block.select_names), context
    )


class _SeededIter(Iterator):
    """Adds the outer row's bindings to every produced tuple."""

    def __init__(self, stats, child, outer_row: Row | None):
        super().__init__(stats)
        self.child = child
        self.outer_row = outer_row

    def open(self) -> None:
        super().open()
        self.child.open()

    def get_next(self) -> Row | None:
        row = self.child.get_next()
        if row is None:
            return None
        if self.outer_row:
            merged = Row(self.outer_row)
            merged.update(row)
            return merged
        return row


class _CrossIter(Iterator):
    """Cartesian product (predicates filter above, Figure 2 style)."""

    def __init__(self, stats, outer, inner):
        super().__init__(stats)
        self.outer = outer
        self.inner = inner
        self._outer_row: Row | None = None
        self._inner_rows: list[Row] | None = None
        self._inner_pos = 0

    def open(self) -> None:
        super().open()
        self.outer.open()
        self.inner.open()
        self._inner_rows = []
        while True:
            row = self.inner.get_next()
            if row is None:
                break
            self._inner_rows.append(row)
        self._outer_row = None
        self._inner_pos = 0

    def get_next(self) -> Row | None:
        while True:
            self._tick()
            if self._outer_row is None:
                self._outer_row = self.outer.get_next()
                if self._outer_row is None:
                    return None
                self._inner_pos = 0
            if self._inner_pos >= len(self._inner_rows):
                self._outer_row = None
                continue
            combined = Row(self._outer_row)
            combined.update(self._inner_rows[self._inner_pos])
            self._inner_pos += 1
            return combined


@dataclass
class RowstoreResult:
    rows: list[tuple]
    column_names: list[str]
    stats: IteratorStats

    @property
    def total_ms(self) -> float:
        return self.stats.total_ms

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class RowstoreEngine:
    """The Figure-2 engine: parse, bind, pull tuples through iterators."""

    name = "rowstore"

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def execute(self, sql: str) -> RowstoreResult:
        block = Binder(self.catalog).bind(parse(sql))
        stats = IteratorStats()
        context = RowstoreContext(self.catalog, stats)
        iterator = build_block_iterator(context, block)
        iterator.open()
        rows: list[tuple] = []
        while True:
            row = iterator.get_next()
            if row is None:
                break
            rows.append(tuple(row[name] for name in block.select_names))
        rows = _postprocess(rows, block)
        return RowstoreResult(rows, list(block.select_names), stats)


def _postprocess(rows: list[tuple], block: BoundBlock) -> list[tuple]:
    if block.distinct:
        seen = set()
        deduped = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        rows = deduped
    if block.order_keys:
        positions = [
            (block.select_names.index(name), descending)
            for name, descending in block.order_keys
        ]
        for position, descending in reversed(positions):
            rows.sort(key=lambda r: r[position], reverse=descending)
    if block.limit is not None:
        rows = rows[: block.limit]
    return rows
