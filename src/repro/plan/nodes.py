"""Logical plan nodes.

A bound query block is planned into a tree of these nodes.  A query
with subqueries becomes the paper's *tree-of-trees*: the outer plan
contains :class:`SubqueryFilter` nodes whose predicates hold ``SUBQ``
leaves (and :class:`SubqueryColumn` nodes for SELECT-list subqueries),
and each such node owns the inner plan of every subquery it evaluates,
built with it by the plan builder.  :meth:`Plan.walk` and
:meth:`Plan.children` stay within one tree: they never enter an inner
plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expressions import PlanExpr


class Plan:
    """Base class of plan nodes."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class Scan(Plan):
    """Scan of a base table under a binding, with pushed-down filters.

    ``filters`` may contain :class:`~repro.plan.expressions.ParamRef`
    (correlated filters inside a subquery plan) — those make the scan
    *transient* in the invariant analysis.
    """

    table: str
    binding: str
    filters: list[PlanExpr] = field(default_factory=list)
    columns: list[str] | None = None  # pruned column set; None = all
    estimated_rows: float = 0.0

    def __str__(self) -> str:
        preds = " AND ".join(str(f) for f in self.filters)
        suffix = f" [{preds}]" if preds else ""
        return f"SCAN {self.table} AS {self.binding}{suffix}"


@dataclass
class DerivedScan(Plan):
    """A derived table in FROM: a full sub-plan exposed under a binding."""

    plan: Plan
    binding: str
    column_names: list[str] = field(default_factory=list)

    def children(self) -> tuple[Plan, ...]:
        return (self.plan,)

    def __str__(self) -> str:
        return f"DERIVED AS {self.binding}"


@dataclass
class Join(Plan):
    """Equi hash join.

    ``build_side`` is ``'auto'`` (the physical operator builds on the
    smaller input), or pinned to ``'left'``/``'right'`` when the
    invariant analysis hoists the hash table of an invariant child out
    of a subquery loop (paper Section III-D).
    """

    left: Plan
    right: Plan
    left_key: PlanExpr
    right_key: PlanExpr
    build_side: str = "auto"

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"JOIN {self.left_key} = {self.right_key}"


@dataclass
class CrossJoin(Plan):
    """Cartesian product of two relations.

    Produced only when a predicate that cannot serve as a join key —
    a theta comparison or a subquery correlated with *both* sides
    (paper Figure 5, second case) — is the only connection between two
    FROM items.  The iteration count of a subsequent ``SUBQ`` loop is
    then the product of the two table sizes, exactly as the paper's
    generated code shows.
    """

    left: Plan
    right: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return "CROSSJOIN"


@dataclass
class Filter(Plan):
    """A selection over an intermediate relation."""

    child: Plan
    predicate: PlanExpr

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"FILTER {self.predicate}"


@dataclass
class SubqueryFilter(Plan):
    """Selection whose predicate contains one or more ``SUBQ`` operands.

    The code generator replaces this node with the iterative loop(s) of
    the nested method (paper Figure 4) — one result vector per operand —
    before evaluating the predicate with the vectors as input columns.
    The unnested rewriter replaces it with joins against derived tables
    (Kim's method).  Quantified comparisons (``> ALL`` etc.) lower to
    predicates over several subquery operands, hence the plural.
    """

    child: Plan
    predicate: PlanExpr  # contains >= 1 SubqueryRef
    descriptors: tuple  # SubqueryDescriptors, in first-appearance order
    inners: tuple[Plan, ...]  # one inner plan per descriptor

    @property
    def descriptor(self):
        """The primary (first) descriptor."""
        return self.descriptors[0]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"SUBQFILTER {self.predicate}"


@dataclass
class SubqueryColumn(Plan):
    """A scalar subquery in the SELECT list (paper §II-A).

    Extends the child relation with one column holding the subquery's
    value per row (NaN where the subquery result is NULL).  The nested
    method evaluates it with the same generated loop as a
    :class:`SubqueryFilter`; the unnested rewriter turns it into a
    :class:`LeftLookup` (outer-join semantics: missing groups are
    NULL).
    """

    child: Plan
    output_name: str
    descriptor: object  # SubqueryDescriptor
    inner: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"SUBQCOLUMN {self.output_name} = SUBQ({self.descriptor.index})"


@dataclass
class LeftLookup(Plan):
    """Outer-join lookup: extend the child with a value from an inner
    relation keyed on an equi-join, with a default for misses.

    This is the core of Dayal-style unnesting for correlated ``count``
    subqueries: outer rows with no inner group must see count 0, which
    an inner join (Kim's method) cannot produce.
    """

    child: Plan
    inner: Plan
    outer_key: PlanExpr
    inner_key: PlanExpr
    value_column: str  # column of the inner relation to fetch
    output_name: str  # name of the appended column
    default: float = 0.0

    def children(self) -> tuple[Plan, ...]:
        return (self.child, self.inner)

    def __str__(self) -> str:
        return (
            f"LEFTLOOKUP {self.outer_key} = {self.inner_key} "
            f"-> {self.output_name} (default {self.default})"
        )


@dataclass
class SemiJoin(Plan):
    """(Anti-)semi-join of the child against an inner plan.

    Used for the EXISTS fast path (paper: TPC-H Q4) and for unnested
    IN/EXISTS rewrites.
    """

    child: Plan
    inner: Plan
    outer_key: PlanExpr
    inner_key: PlanExpr
    negated: bool = False

    def children(self) -> tuple[Plan, ...]:
        return (self.child, self.inner)

    def __str__(self) -> str:
        kind = "ANTI" if self.negated else "SEMI"
        return f"{kind}JOIN {self.outer_key} = {self.inner_key}"


@dataclass
class AggSpecNode:
    """One aggregate computation: op over an expression, output name."""

    op: str  # 'min' | 'max' | 'sum' | 'avg' | 'count'
    arg: PlanExpr | None  # None for count(*)
    name: str  # '__agg0', ...
    distinct: bool = False


@dataclass
class Aggregate(Plan):
    """Group-by aggregation (scalar aggregation when ``groups`` empty)."""

    child: Plan
    groups: list[PlanExpr]
    aggs: list[AggSpecNode]
    having: PlanExpr | None = None

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        keys = ", ".join(str(g) for g in self.groups) or "()"
        funcs = ", ".join(f"{a.op}({a.arg or '*'})" for a in self.aggs)
        return f"AGG [{funcs}] GROUP BY {keys}"


@dataclass
class Project(Plan):
    """Final projection to named output columns."""

    child: Plan
    exprs: list[PlanExpr]
    names: list[str]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return "PROJECT " + ", ".join(self.names)


@dataclass
class Distinct(Plan):
    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return "DISTINCT"


@dataclass
class Sort(Plan):
    """Order by named output columns of the child."""

    child: Plan
    keys: list[str]
    descending: list[bool]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        parts = [
            f"{k} {'DESC' if d else 'ASC'}"
            for k, d in zip(self.keys, self.descending)
        ]
        return "SORT " + ", ".join(parts)


@dataclass
class Limit(Plan):
    child: Plan
    count: int

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def __str__(self) -> str:
        return f"LIMIT {self.count}"


def explain(plan: Plan, indent: int = 0) -> str:
    """A readable indented rendering of a plan tree."""
    lines = ["  " * indent + str(plan)]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
