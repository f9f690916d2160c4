"""Abstract syntax tree for the SQL dialect.

The dialect covers everything the paper's workload needs: multi-table
``FROM`` with conjunctive ``WHERE`` (implicit joins), scalar correlated
subqueries compared with any operator, ``EXISTS`` / ``NOT EXISTS``,
``IN`` subqueries, ``LIKE``, ``BETWEEN``, arithmetic, aggregates,
``GROUP BY`` / ``HAVING`` / ``ORDER BY`` / ``LIMIT``, and derived
tables in ``FROM`` (needed for the manually-unnested Query 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, string, or date (already typed)."""

    value: object
    kind: str  # 'int' | 'decimal' | 'string' | 'date'

    def __str__(self) -> str:
        if self.kind == "string":
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, or boolean binary operator."""

    op: str  # '+','-','*','/','=','!=','<','<=','>','>=','and','or'
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus or NOT."""

    op: str  # '-' | 'not'
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """An aggregate or scalar function call.

    ``count(*)`` is represented with ``star=True`` and no args.
    """

    name: str
    args: tuple[Expr, ...] = ()
    star: bool = False
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class SubqueryExpr(Expr):
    """A scalar subquery used as an expression operand."""

    query: "SelectStmt"

    def __str__(self) -> str:
        return "(subquery)"


@dataclass(frozen=True)
class ExistsExpr(Expr):
    """``[NOT] EXISTS (subquery)``."""

    query: "SelectStmt"
    negated: bool = False

    def __str__(self) -> str:
        prefix = "not exists" if self.negated else "exists"
        return f"{prefix}(subquery)"


@dataclass(frozen=True)
class InExpr(Expr):
    """``expr [NOT] IN (subquery | value list)``."""

    operand: Expr
    query: "SelectStmt | None" = None
    values: tuple[Expr, ...] = ()
    negated: bool = False

    def __str__(self) -> str:
        target = "(subquery)" if self.query is not None else str(list(self.values))
        middle = "not in" if self.negated else "in"
        return f"({self.operand} {middle} {target})"


@dataclass(frozen=True)
class BetweenExpr(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class LikeExpr(Expr):
    """``expr [NOT] LIKE 'pattern'`` with ``%`` and ``_`` wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        middle = "not like" if self.negated else "like"
        return f"({self.operand} {middle} '{self.pattern}')"


@dataclass(frozen=True)
class QuantifiedExpr(Expr):
    """``expr op ANY|ALL (subquery)`` (``SOME`` is an alias of ANY)."""

    op: str  # '=','!=','<','<=','>','>='
    quantifier: str  # 'any' | 'all'
    operand: Expr
    query: "SelectStmt"

    def __str__(self) -> str:
        return f"({self.operand} {self.op} {self.quantifier.upper()} (subquery))"


@dataclass(frozen=True)
class IntervalLiteral(Expr):
    """``INTERVAL '<n>' <unit>`` — lowered to days at bind time."""

    quantity: int
    unit: str  # 'day' | 'month' | 'year'

    def __str__(self) -> str:
        return f"INTERVAL '{self.quantity}' {self.unit.upper()}"


@dataclass(frozen=True)
class Star(Expr):
    """The bare ``*`` of ``SELECT *``."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class SelectItem:
    """One output expression with an optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A base-table reference in FROM."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable:
    """A parenthesised subquery in FROM (``(...) AS t1``)."""

    query: "SelectStmt"
    alias: str


FromItem = Union[TableRef, DerivedTable]


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class SelectStmt:
    """A full SELECT statement (possibly nested inside another)."""

    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE clause into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]
