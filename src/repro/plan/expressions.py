"""Bound (resolved, typed) expressions used in logical plans.

The binder turns parser AST expressions into these nodes:

* column references carry their binding (FROM-item alias) and dtype;
* string/date literals are already encoded into the physical domain
  (dictionary codes / days-since-epoch), so the engine only ever
  compares numbers;
* correlated references to an enclosing query block become
  :class:`ParamRef` — the runtime substitutes the current outer tuple's
  value (or a whole batch of values under vectorization);
* a subquery becomes a :class:`SubqueryRef` leaf pointing at a
  :class:`~repro.plan.binder.SubqueryDescriptor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


class PlanExpr:
    """Base class of bound expressions."""

    def walk(self) -> Iterator["PlanExpr"]:
        """Yield this node and all descendants (subqueries are leaves)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple["PlanExpr", ...]:
        return ()


@dataclass(frozen=True)
class ColRef(PlanExpr):
    """A resolved column of the current query block."""

    binding: str
    column: str
    dtype_name: str  # 'int' | 'decimal' | 'date' | 'string'

    @property
    def qual(self) -> str:
        return f"{self.binding}.{self.column}"

    def __str__(self) -> str:
        return self.qual


@dataclass(frozen=True)
class ParamRef(PlanExpr):
    """A correlated reference to a column of an enclosing block.

    ``qual`` names the outer column; the drive program maintains an
    environment mapping quals to the current outer value.
    """

    qual: str
    dtype_name: str

    def __str__(self) -> str:
        return f"${self.qual}"


@dataclass(frozen=True)
class Const(PlanExpr):
    """A literal, already in the physical domain of its comparison."""

    value: float | int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AggRef(PlanExpr):
    """Reference to an aggregate output column (``__agg0``, ...)."""

    name: str
    dtype_name: str = "decimal"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arith(PlanExpr):
    """Arithmetic: ``+ - * /``."""

    op: str
    left: PlanExpr
    right: PlanExpr

    def children(self) -> tuple[PlanExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Compare(PlanExpr):
    """Comparison producing a mask: ``= != < <= > >=``."""

    op: str
    left: PlanExpr
    right: PlanExpr

    def children(self) -> tuple[PlanExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BoolOp(PlanExpr):
    """``and`` / ``or`` over masks."""

    op: str
    left: PlanExpr
    right: PlanExpr

    def children(self) -> tuple[PlanExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class NotOp(PlanExpr):
    operand: PlanExpr

    def children(self) -> tuple[PlanExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class InCodes(PlanExpr):
    """Membership of a dictionary-encoded column in a fixed code set.

    This is the bound form of ``LIKE`` and of ``IN (string list)``: the
    pattern was evaluated against the dictionary at bind time and only
    the matching codes remain.
    """

    operand: PlanExpr
    codes: tuple[int, ...]
    negated: bool = False

    def children(self) -> tuple[PlanExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        middle = "not in" if self.negated else "in"
        return f"({self.operand} {middle} codes{list(self.codes)[:4]}...)"

    @property
    def code_array(self) -> np.ndarray:
        # Dictionary codes are ints, but the binder also lowers numeric
        # IN-lists here — a fixed int64 dtype would truncate decimals.
        if all(float(code).is_integer() for code in self.codes):
            return np.asarray(self.codes, dtype=np.int64)
        return np.asarray(self.codes, dtype=np.float64)


@dataclass(frozen=True)
class SubqueryRef(PlanExpr):
    """A subquery operand — the paper's ``SUBQ`` with its index.

    The descriptor (block, params, kind) lives on the enclosing
    :class:`~repro.plan.binder.BoundBlock`; this leaf carries only the
    index, keeping expressions hashable.
    """

    index: int
    kind: str  # 'scalar' | 'exists' | 'in'
    negated: bool = False

    def __str__(self) -> str:
        return f"SUBQ({self.index})"


def referenced_bindings(expr: PlanExpr) -> set[str]:
    """Bindings of the current block referenced by ``expr``."""
    return {node.binding for node in expr.walk() if isinstance(node, ColRef)}


def referenced_columns(expr: PlanExpr) -> list[ColRef]:
    """All column references in ``expr`` (current block only)."""
    return [node for node in expr.walk() if isinstance(node, ColRef)]


def referenced_params(expr: PlanExpr) -> list[ParamRef]:
    """All correlated (outer) references in ``expr``."""
    return [node for node in expr.walk() if isinstance(node, ParamRef)]


def contains_subquery(expr: PlanExpr) -> bool:
    return any(isinstance(node, SubqueryRef) for node in expr.walk())


def split_conjuncts(expr: PlanExpr | None) -> list[PlanExpr]:
    """Flatten top-level AND into conjuncts (bound-expression level)."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def subquery_refs(expr: PlanExpr) -> list[SubqueryRef]:
    return [node for node in expr.walk() if isinstance(node, SubqueryRef)]


def _replace_subquery_refs(
    expr: PlanExpr, mapping: dict[int, PlanExpr]
) -> PlanExpr:
    """Substitute each ``SUBQ(i)`` leaf with ``mapping[i]``."""
    if isinstance(expr, SubqueryRef):
        return mapping.get(expr.index, expr)
    if isinstance(expr, Compare):
        return Compare(
            expr.op,
            _replace_subquery_refs(expr.left, mapping),
            _replace_subquery_refs(expr.right, mapping),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(
            expr.op,
            _replace_subquery_refs(expr.left, mapping),
            _replace_subquery_refs(expr.right, mapping),
        )
    if isinstance(expr, NotOp):
        return NotOp(_replace_subquery_refs(expr.operand, mapping))
    if isinstance(expr, Arith):
        return Arith(
            expr.op,
            _replace_subquery_refs(expr.left, mapping),
            _replace_subquery_refs(expr.right, mapping),
        )
    return expr
