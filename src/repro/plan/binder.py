"""Name resolution and correlation analysis.

The binder turns a parsed :class:`~repro.sql.ast.SelectStmt` into a
:class:`BoundBlock`.  Subqueries become nested blocks reached through
:class:`SubqueryDescriptor`; a column reference that fails to resolve
in the current block's scope and resolves in an enclosing block becomes
a :class:`~repro.plan.expressions.ParamRef` — this is exactly the
paper's definition of a *correlated* subquery, and the set of params of
a block drives everything downstream (transient marking, iteration
variables of the generated loop, cache keys, index choice).

Binding also performs all string work once: string and date literals
are encoded into the physical (numeric) domain against the referenced
column's dictionary, and ``LIKE`` patterns are evaluated against the
dictionary so the plan only carries numeric code sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import BindError
from ..sql import ast
from ..storage import Catalog, Column
from ..storage.datatypes import date_to_int
from .expressions import (
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
from .nodes import AggSpecNode

_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class _OriginColRef(ColRef):
    """A ColRef that remembers the storage column behind it.

    The origin powers bind-time literal encoding and LIKE evaluation;
    it deliberately does not participate in planning decisions.
    """

    origin: Column | None = None


@dataclass
class BoundColumn:
    """Metadata of one column visible under a binding."""

    name: str
    dtype_name: str
    origin: Column | None  # storage column for literal encoding / LIKE


@dataclass
class BoundTable:
    """A base table in FROM under a (globally unique) binding."""

    binding: str
    table: str
    columns: list[BoundColumn]

    @property
    def is_derived(self) -> bool:
        return False


@dataclass
class BoundDerived:
    """A derived table in FROM: a nested block under a binding."""

    binding: str
    block: "BoundBlock"
    columns: list[BoundColumn]

    @property
    def is_derived(self) -> bool:
        return True


@dataclass
class SubqueryDescriptor:
    """One subquery of a block: the paper's ``SUBQ`` operand.

    Attributes:
        index: position in the enclosing block's subquery list.
        block: the bound inner query block.
        kind: 'scalar' (type-A/JA), 'exists' or 'in' (type-N/J).
        negated: NOT EXISTS / NOT IN.
        in_operand: for ``kind='in'``, the outer-block expression tested
            for membership.
        free_quals: outer column quals the subquery subtree needs at
            runtime — the loop variables of the generated code.
    """

    index: int
    block: "BoundBlock"
    kind: str
    negated: bool = False
    in_operand: PlanExpr | None = None
    free_quals: tuple[str, ...] = ()

    @property
    def is_correlated(self) -> bool:
        return bool(self.free_quals)


@dataclass
class BoundBlock:
    """A fully resolved query block."""

    tables: list[BoundTable | BoundDerived]
    conjuncts: list[PlanExpr]
    select_exprs: list[PlanExpr]
    select_names: list[str]
    aggs: list[AggSpecNode]
    group_keys: list[PlanExpr]
    having: PlanExpr | None
    order_keys: list[tuple[str, bool]]
    limit: int | None
    distinct: bool
    subqueries: list[SubqueryDescriptor]
    params: list[ParamRef]

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggs) or bool(self.group_keys)

    def all_blocks(self):
        """Yield this block and every nested subquery/derived block."""
        yield self
        for table in self.tables:
            if table.is_derived:
                yield from table.block.all_blocks()
        for descriptor in self.subqueries:
            yield from descriptor.block.all_blocks()


class _Scope:
    """One level of name visibility: the FROM items of a block."""

    def __init__(self, parent: "_Scope | None"):
        self.parent = parent
        # original alias -> (unique binding, columns)
        self.entries: dict[str, tuple[str, list[BoundColumn]]] = {}

    def add(self, alias: str, binding: str, columns: list[BoundColumn]) -> None:
        if alias in self.entries:
            raise BindError(f"duplicate FROM alias {alias!r}")
        self.entries[alias] = (binding, columns)

    def find(self, column: str, qualifier: str | None):
        """Resolve in this scope only -> (binding, BoundColumn) or None."""
        matches = []
        for alias, (binding, columns) in self.entries.items():
            if qualifier is not None and alias != qualifier:
                continue
            for col in columns:
                if col.name == column:
                    matches.append((binding, col))
        if len(matches) > 1:
            raise BindError(f"ambiguous column {column!r}")
        return matches[0] if matches else None


def _like_to_regex(pattern: str) -> re.Pattern:
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


class Binder:
    """Binds one statement (and its nested blocks) against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._used_bindings: set[str] = set()
        self._agg_counter = 0

    # -- public ----------------------------------------------------------

    def bind(self, stmt: ast.SelectStmt) -> BoundBlock:
        return self._bind_block(stmt, parent_scope=None)

    # -- block binding -----------------------------------------------------

    def _unique_binding(self, preferred: str) -> str:
        binding = preferred
        counter = 1
        while binding in self._used_bindings:
            binding = f"{preferred}#{counter}"
            counter += 1
        self._used_bindings.add(binding)
        return binding

    def _bind_block(
        self, stmt: ast.SelectStmt, parent_scope: _Scope | None
    ) -> BoundBlock:
        scope = _Scope(parent_scope)
        tables: list[BoundTable | BoundDerived] = []
        for item in stmt.from_items:
            if isinstance(item, ast.TableRef):
                table = self.catalog.table(item.name)
                columns = [
                    BoundColumn(c.name, c.dtype.name, c) for c in table.columns
                ]
                binding = self._unique_binding(item.binding_name)
                scope.add(item.binding_name, binding, columns)
                tables.append(BoundTable(binding, item.name, columns))
            else:  # DerivedTable
                inner_block = self._bind_block(item.query, parent_scope)
                if inner_block.params:
                    raise BindError("derived tables may not be correlated (LATERAL unsupported)")
                columns = _derived_columns(inner_block)
                binding = self._unique_binding(item.alias)
                scope.add(item.alias, binding, columns)
                tables.append(BoundDerived(binding, inner_block, columns))

        state = _BlockState(scope)
        conjuncts = [
            self._bind_predicate(conj, state)
            for conj in ast.split_conjuncts(stmt.where)
        ]

        select_exprs: list[PlanExpr] = []
        select_names: list[str] = []
        if len(stmt.items) == 1 and isinstance(stmt.items[0].expr, ast.Star):
            for alias, (binding, columns) in scope.entries.items():
                for col in columns:
                    select_exprs.append(ColRef(binding, col.name, col.dtype_name))
                    select_names.append(col.name)
        else:
            for i, item in enumerate(stmt.items):
                expr = self._bind_expr(item.expr, state, allow_agg=True)
                select_exprs.append(expr)
                select_names.append(_output_name(item, expr, i))
        if len(set(select_names)) != len(select_names):
            select_names = [
                name if select_names.count(name) == 1 else f"{name}_{i}"
                for i, name in enumerate(select_names)
            ]

        group_keys = [
            self._bind_expr(g, state, allow_agg=False) for g in stmt.group_by
        ]
        having = (
            self._bind_predicate(stmt.having, state, allow_agg=True)
            if stmt.having is not None
            else None
        )

        order_keys = []
        for order in stmt.order_by:
            order_keys.append(
                (_order_output_name(order.expr, stmt.items, select_exprs, select_names),
                 order.descending)
            )

        block = BoundBlock(
            tables=tables,
            conjuncts=conjuncts,
            select_exprs=select_exprs,
            select_names=select_names,
            aggs=state.aggs,
            group_keys=group_keys,
            having=having,
            order_keys=order_keys,
            limit=stmt.limit,
            distinct=stmt.distinct,
            subqueries=state.subqueries,
            params=state.params,
        )
        for descriptor in block.subqueries:
            descriptor.free_quals = _free_quals(descriptor.block)
        return block

    # -- expression binding --------------------------------------------------

    def _bind_predicate(
        self, expr: ast.Expr, state: "_BlockState", allow_agg: bool = False
    ) -> PlanExpr:
        return self._bind_expr(expr, state, allow_agg=allow_agg)

    def _bind_expr(
        self, expr: ast.Expr, state: "_BlockState", allow_agg: bool
    ) -> PlanExpr:
        if isinstance(expr, ast.Literal):
            return self._bind_literal(expr)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve_column(expr, state)
        if isinstance(expr, ast.BinaryOp):
            return self._bind_binary(expr, state, allow_agg)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "not":
                return NotOp(self._bind_expr(expr.operand, state, allow_agg))
            operand = self._bind_expr(expr.operand, state, allow_agg)
            return Arith("-", Const(0), operand)
        if isinstance(expr, ast.FuncCall):
            if not allow_agg:
                raise BindError(
                    f"aggregate {expr.name}() not allowed in this clause"
                )
            return self._bind_aggregate(expr, state)
        if isinstance(expr, ast.SubqueryExpr):
            return self._bind_subquery(expr.query, state, kind="scalar")
        if isinstance(expr, ast.QuantifiedExpr):
            return self._bind_quantified(expr, state, allow_agg)
        if isinstance(expr, ast.IntervalLiteral):
            return _IntervalConst(expr.quantity, expr.unit)
        if isinstance(expr, ast.ExistsExpr):
            return self._bind_subquery(
                expr.query, state, kind="exists", negated=expr.negated
            )
        if isinstance(expr, ast.InExpr):
            return self._bind_in(expr, state, allow_agg)
        if isinstance(expr, ast.BetweenExpr):
            operand = self._bind_expr(expr.operand, state, allow_agg)
            low = self._encoded_const(operand, expr.low, state, allow_agg)
            high = self._encoded_const(operand, expr.high, state, allow_agg)
            between = BoolOp(
                "and",
                Compare(">=", operand, low),
                Compare("<=", operand, high),
            )
            return NotOp(between) if expr.negated else between
        if isinstance(expr, ast.LikeExpr):
            return self._bind_like(expr, state, allow_agg)
        raise BindError(f"unsupported expression {expr!r}")

    def _bind_literal(self, literal: ast.Literal) -> PlanExpr:
        if literal.kind == "date":
            return Const(date_to_int(literal.value))
        if literal.kind == "string":
            # kept symbolic until a comparison supplies a dictionary
            return _StringConst(literal.value)
        return Const(literal.value)

    def _bind_binary(
        self, expr: ast.BinaryOp, state: "_BlockState", allow_agg: bool
    ) -> PlanExpr:
        if expr.op in ("and", "or"):
            return BoolOp(
                expr.op,
                self._bind_expr(expr.left, state, allow_agg),
                self._bind_expr(expr.right, state, allow_agg),
            )
        left = self._bind_expr(expr.left, state, allow_agg)
        right = self._bind_expr(expr.right, state, allow_agg)
        if expr.op in ("+", "-", "*", "/"):
            if isinstance(left, _StringConst) or isinstance(right, _StringConst):
                raise BindError("arithmetic on string literals is not supported")
            if isinstance(right, _IntervalConst):
                return _apply_interval(left, right, expr.op)
            if isinstance(left, _IntervalConst):
                if expr.op != "+":
                    raise BindError("an interval may only be added to a date")
                return _apply_interval(right, left, "+")
            return Arith(expr.op, left, right)
        # comparison: encode string literals against the other side
        left, right = self._encode_sides(left, right)
        return Compare(expr.op, left, right)

    def _encode_sides(
        self, left: PlanExpr, right: PlanExpr
    ) -> tuple[PlanExpr, PlanExpr]:
        if isinstance(left, _StringConst) and isinstance(right, _StringConst):
            raise BindError("comparison between two string literals")
        if isinstance(right, _StringConst):
            return left, _encode_string(right, left)
        if isinstance(left, _StringConst):
            return _encode_string(left, right), right
        return left, right

    def _encoded_const(
        self, operand: PlanExpr, expr: ast.Expr, state: "_BlockState", allow_agg: bool
    ) -> PlanExpr:
        bound = self._bind_expr(expr, state, allow_agg)
        if isinstance(bound, _StringConst):
            return _encode_string(bound, operand)
        return bound

    def _bind_like(
        self, expr: ast.LikeExpr, state: "_BlockState", allow_agg: bool
    ) -> PlanExpr:
        operand = self._bind_expr(expr.operand, state, allow_agg)
        origin = _origin_of(operand, state)
        if origin is None or origin.dictionary is None:
            raise BindError("LIKE requires a dictionary-encoded string column")
        regex = _like_to_regex(expr.pattern)
        codes = origin.dictionary.matching_codes(
            lambda value: regex.fullmatch(value) is not None
        )
        return InCodes(operand, tuple(int(c) for c in codes), expr.negated)

    def _bind_in(
        self, expr: ast.InExpr, state: "_BlockState", allow_agg: bool
    ) -> PlanExpr:
        operand = self._bind_expr(expr.operand, state, allow_agg)
        if expr.query is not None:
            ref = self._bind_subquery(
                expr.query, state, kind="in", negated=expr.negated
            )
            state.subqueries[ref.index].in_operand = operand
            return ref
        values: list[float] = []
        for value_expr in expr.values:
            bound = self._bind_expr(value_expr, state, allow_agg)
            if isinstance(bound, _StringConst):
                bound = _encode_string(bound, operand)
            if not isinstance(bound, Const):
                raise BindError("IN list items must be literals")
            values.append(bound.value)
        return InCodes(operand, tuple(values), expr.negated)

    def _bind_aggregate(self, expr: ast.FuncCall, state: "_BlockState") -> PlanExpr:
        name = f"__agg{self._agg_counter}"
        self._agg_counter += 1
        arg = None
        if not expr.star:
            if len(expr.args) != 1:
                raise BindError(f"{expr.name}() takes exactly one argument")
            arg = self._bind_expr(expr.args[0], state, allow_agg=False)
        elif expr.name != "count":
            raise BindError(f"{expr.name}(*) is not valid")
        state.aggs.append(AggSpecNode(expr.name, arg, name, expr.distinct))
        return AggRef(name)

    def _bind_quantified(
        self, expr: ast.QuantifiedExpr, state: "_BlockState", allow_agg: bool
    ) -> PlanExpr:
        """Lower ``x op ANY|ALL (subquery)`` onto scalar/IN machinery.

        Ordered operators reduce to min/max scalar subqueries; the
        empty-set semantics (ANY over nothing is false, ALL over
        nothing is true) fall out of SQL NULL handling for ANY and an
        explicit ``count(*) = 0`` disjunct for ALL.  Equality forms map
        to IN / NOT IN; the remaining combinations compose from those.
        """
        operand = self._bind_expr(expr.operand, state, allow_agg)
        op, quantifier, query = expr.op, expr.quantifier, expr.query
        if len(query.items) != 1 or isinstance(query.items[0].expr, ast.Star):
            raise BindError("quantified subquery must select exactly one expression")
        inner_expr = query.items[0].expr

        def scalar_ref(agg_name: str) -> SubqueryRef:
            item = ast.SelectItem(ast.FuncCall(agg_name, (inner_expr,)))
            stmt = _with_items(query, (item,))
            return self._bind_subquery(stmt, state, kind="scalar")

        def count_is_zero() -> PlanExpr:
            item = ast.SelectItem(ast.FuncCall("count", star=True))
            stmt = _with_items(query, (item,))
            ref = self._bind_subquery(stmt, state, kind="scalar")
            return Compare("=", ref, Const(0))

        if op == "=" and quantifier == "any":
            ref = self._bind_subquery(query, state, kind="in")
            state.subqueries[ref.index].in_operand = operand
            return ref
        if op == "!=" and quantifier == "all":
            ref = self._bind_subquery(query, state, kind="in", negated=True)
            state.subqueries[ref.index].in_operand = operand
            return ref
        if op == "=" and quantifier == "all":
            both = BoolOp(
                "and",
                Compare("=", operand, scalar_ref("min")),
                Compare("=", operand, scalar_ref("max")),
            )
            return BoolOp("or", count_is_zero(), both)
        if op == "!=" and quantifier == "any":
            # x != ANY(S)  <=>  S nonempty and not (x = ALL of S)
            either = BoolOp(
                "or",
                Compare("!=", operand, scalar_ref("min")),
                Compare("!=", operand, scalar_ref("max")),
            )
            return either
        # ordered comparisons
        if quantifier == "any":
            agg = "min" if op in (">", ">=") else "max"
            return Compare(op, operand, scalar_ref(agg))
        agg = "max" if op in (">", ">=") else "min"
        return BoolOp(
            "or", count_is_zero(), Compare(op, operand, scalar_ref(agg))
        )

    def _bind_subquery(
        self,
        stmt: ast.SelectStmt,
        state: "_BlockState",
        kind: str,
        negated: bool = False,
    ) -> SubqueryRef:
        inner = self._bind_block(stmt, parent_scope=state.scope)
        index = len(state.subqueries)
        descriptor = SubqueryDescriptor(index, inner, kind, negated)
        descriptor.free_quals = _free_quals(inner)
        state.subqueries.append(descriptor)
        return SubqueryRef(index, kind, negated)

    def _resolve_column(
        self, ref: ast.ColumnRef, state: "_BlockState"
    ) -> PlanExpr:
        # current scope first
        hit = state.scope.find(ref.name, ref.table)
        if hit is not None:
            binding, col = hit
            return _OriginColRef(binding, col.name, col.dtype_name, col.origin)
        # enclosing scopes: a correlated reference
        scope = state.scope.parent
        while scope is not None:
            hit = scope.find(ref.name, ref.table)
            if hit is not None:
                binding, col = hit
                param = ParamRef(f"{binding}.{col.name}", col.dtype_name)
                if all(p.qual != param.qual for p in state.params):
                    state.params.append(param)
                state.param_origins[param.qual] = col.origin
                return param
            scope = scope.parent
        raise BindError(f"cannot resolve column {ref}")


@dataclass
class _BlockState:
    """Mutable accumulation while binding one block."""

    scope: _Scope
    aggs: list[AggSpecNode] = field(default_factory=list)
    subqueries: list[SubqueryDescriptor] = field(default_factory=list)
    params: list[ParamRef] = field(default_factory=list)
    param_origins: dict[str, Column | None] = field(default_factory=dict)


@dataclass(frozen=True)
class _StringConst(PlanExpr):
    """A string literal awaiting a dictionary to encode against."""

    value: str


@dataclass(frozen=True)
class _IntervalConst(PlanExpr):
    """An INTERVAL literal awaiting date arithmetic."""

    quantity: int
    unit: str  # 'day' | 'month' | 'year'


def _with_items(
    stmt: ast.SelectStmt, items: tuple[ast.SelectItem, ...]
) -> ast.SelectStmt:
    """The same SELECT with its projection replaced (used to lower
    quantified subqueries to min/max/count scalar subqueries)."""
    import dataclasses

    return dataclasses.replace(stmt, items=items)


def _apply_interval(date_expr: PlanExpr, interval: _IntervalConst, op: str) -> PlanExpr:
    """Date +/- interval.

    A date *literal* gets exact calendar arithmetic (folded at bind
    time, which covers the TPC-H date-window predicates).  A date
    *column* falls back to approximate day offsets (30-day months),
    documented as a dialect approximation.
    """
    import datetime

    from ..storage.datatypes import date_to_int, int_to_date

    sign = 1 if op == "+" else -1
    if op not in ("+", "-"):
        raise BindError("intervals support only + and -")
    if isinstance(date_expr, Const):
        base = int_to_date(int(date_expr.value))
        amount = sign * interval.quantity
        if interval.unit == "day":
            result = base + datetime.timedelta(days=amount)
        else:
            months = amount * (12 if interval.unit == "year" else 1)
            total = base.month - 1 + months
            year = base.year + total // 12
            month = total % 12 + 1
            # clamp the day to the target month's length
            for day in range(base.day, 27, -1):
                try:
                    result = datetime.date(year, month, day)
                    break
                except ValueError:
                    continue
            else:
                result = datetime.date(year, month, min(base.day, 28))
        return Const(date_to_int(result))
    days = {"day": 1, "month": 30, "year": 365}[interval.unit]
    return Arith(op, date_expr, Const(interval.quantity * days))


def _encode_string(const: _StringConst, other: PlanExpr) -> Const:
    origin = _raw_origin(other)
    if origin is None or origin.dictionary is None:
        raise BindError(
            f"string literal {const.value!r} compared with a non-string column"
        )
    return Const(origin.encode_literal(const.value))


def _raw_origin(expr: PlanExpr) -> Column | None:
    """Find the storage column behind an expression, if any."""
    if isinstance(expr, _OriginColRef):
        return expr.origin
    return None


def _origin_of(expr: PlanExpr, state: "_BlockState") -> Column | None:
    if isinstance(expr, _OriginColRef):
        return expr.origin
    if isinstance(expr, ParamRef):
        return state.param_origins.get(expr.qual)
    return None


def _derived_columns(block: BoundBlock) -> list[BoundColumn]:
    columns = []
    for name, expr in zip(block.select_names, block.select_exprs):
        dtype_name = _expr_dtype(expr)
        origin = None
        if isinstance(expr, _OriginColRef):
            origin = expr.origin
        columns.append(BoundColumn(name, dtype_name, origin))
    return columns


def _expr_dtype(expr: PlanExpr) -> str:
    if isinstance(expr, ColRef):
        return expr.dtype_name
    if isinstance(expr, ParamRef):
        return expr.dtype_name
    if isinstance(expr, (AggRef, Arith)):
        return "decimal"
    if isinstance(expr, Const):
        return "decimal" if isinstance(expr.value, float) else "int"
    return "decimal"


def _output_name(item: ast.SelectItem, expr: PlanExpr, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(expr, ColRef):
        return expr.column
    if isinstance(item.expr, ast.FuncCall):
        return item.expr.name
    return f"col{index}"


def _order_output_name(
    expr: ast.Expr,
    items: tuple[ast.SelectItem, ...],
    select_exprs: list[PlanExpr],
    select_names: list[str],
) -> str:
    if not isinstance(expr, ast.ColumnRef):
        raise BindError("ORDER BY supports plain column/alias references only")
    # alias match
    for item, name in zip(items, select_names):
        if name == expr.name:
            return name
    # bare-column match against projected ColRefs
    for bound, name in zip(select_exprs, select_names):
        if isinstance(bound, ColRef) and bound.column == expr.name:
            if expr.table is None or bound.binding.split("#")[0] == expr.table:
                return name
    raise BindError(f"ORDER BY column {expr} is not in the select list")


def _free_quals(block: BoundBlock) -> tuple[str, ...]:
    """Outer quals needed by ``block`` and everything nested in it."""
    provided = set()
    needed: list[str] = []
    _visit_quals(block, provided, needed)
    # preserve order, drop quals satisfied inside the subtree
    result = []
    for qual in needed:
        if qual not in provided and qual not in result:
            result.append(qual)
    return tuple(result)


def _visit_quals(block: BoundBlock, provided: set, needed: list) -> None:
    """The quals ``block``'s subtree provides and needs (not a cyclic closure)."""
    for table in block.tables:
        for col in table.columns:
            provided.add(f"{table.binding}.{col.name}")
        if table.is_derived:
            _visit_quals(table.block, provided, needed)
    for param in block.params:
        needed.append(param.qual)
    for descriptor in block.subqueries:
        _visit_quals(descriptor.block, provided, needed)
