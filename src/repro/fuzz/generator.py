"""Seeded random generation of well-typed correlated SQL over TPC-H.

The generator builds :mod:`repro.sql.ast` trees directly — structural
construction is how type discipline is enforced — and renders them
through :func:`repro.sql.unparse`.  Every query contains at least one
subquery; the dimensions the fuzzer sweeps are:

* **subquery kind** — scalar (aggregate), EXISTS / NOT EXISTS,
  IN / NOT IN, quantified (``op ANY|ALL``);
* **placement** — WHERE (the common case), SELECT list (scalar only),
  HAVING (scalar against a group aggregate);
* **correlation depth** — 0 (uncorrelated type-A/N), 1 (the paper's
  type-J/JA), or 2 (a subquery inside the subquery, correlated to the
  middle or the outermost level, the paper's Figure 6 shape);
* **predicate mix** — numeric comparisons, BETWEEN, string equality,
  LIKE, IN-lists, date windows, plus optional non-equality correlation
  (which makes the query non-unnestable, exercising the fallback path);
* **aggregate choice** — min/max/sum/avg/count/count(*), sometimes
  under arithmetic (the Q17 ``0.2 * avg`` shape);
* **subquery count** — two independent SUBQs in one WHERE (AND- or
  OR-combined), or scalar subqueries on *both* sides of one
  comparison (``features["num_subqueries"] == 2``);
* **negation shape** — ``NOT IN`` via the flag and via an explicit
  ``NOT (x IN ...)`` wrapper, plus disjunctive correlation inside the
  subquery body — the non-unnestable shapes that force the nested
  fallback.

Literals are sampled from the actual column data so predicates sit on
the live value range (all-empty results would test nothing); the
sampled value is nudged with small offsets so exact-hit and near-miss
boundaries both occur.

Determinism: one :class:`QueryGenerator` seeded with ``(seed, index)``
produces exactly one query, independent of any other index — the
property replay and shrinking rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..sql import ast, unparse
from ..storage import Catalog
from ..storage.datatypes import int_to_date

# Key relationships of the TPC-H schema: (table_a, col_a, table_b, col_b)
# pairs whose equality is a meaningful (and hit-producing) correlation.
JOIN_PAIRS = [
    ("customer", "c_custkey", "orders", "o_custkey"),
    ("orders", "o_orderkey", "lineitem", "l_orderkey"),
    ("part", "p_partkey", "partsupp", "ps_partkey"),
    ("part", "p_partkey", "lineitem", "l_partkey"),
    ("supplier", "s_suppkey", "partsupp", "ps_suppkey"),
    ("supplier", "s_suppkey", "lineitem", "l_suppkey"),
    ("nation", "n_nationkey", "supplier", "s_nationkey"),
    ("nation", "n_nationkey", "customer", "c_nationkey"),
    ("region", "r_regionkey", "nation", "n_regionkey"),
    ("customer", "c_nationkey", "supplier", "s_nationkey"),
]

# Same-kind column pairs for *non-equality* correlation (decimal with
# decimal, date with date); these produce the paper's non-unnestable
# Query-5 family.
ORDERED_PAIRS = [
    ("part", "p_retailprice", "partsupp", "ps_supplycost"),
    ("part", "p_retailprice", "lineitem", "l_extendedprice"),
    ("customer", "c_acctbal", "supplier", "s_acctbal"),
    ("orders", "o_orderdate", "lineitem", "l_shipdate"),
    ("orders", "o_totalprice", "lineitem", "l_extendedprice"),
]

_COMPARES = ["=", "!=", "<", "<=", ">", ">="]
_AGGREGATES = ["min", "max", "sum", "avg", "count"]


@dataclass
class FuzzQuery:
    """One generated query plus the knobs that produced it."""

    seed: object
    stmt: ast.SelectStmt
    sql: str
    features: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.sql


class _TableInfo:
    """Column classification of one catalog table."""

    def __init__(self, table):
        self.name = table.name
        self.table = table
        self.int_cols: list[str] = []
        self.dec_cols: list[str] = []
        self.date_cols: list[str] = []
        self.str_cols: list[str] = []
        for column in table.columns:
            kind = column.dtype.name
            if kind == "int":
                self.int_cols.append(column.name)
            elif kind == "decimal":
                self.dec_cols.append(column.name)
            elif kind == "date":
                self.date_cols.append(column.name)
            elif kind == "string":
                self.str_cols.append(column.name)

    @property
    def numeric_cols(self) -> list[str]:
        return self.int_cols + self.dec_cols


class QueryGenerator:
    """Generates one random correlated query per ``generate()`` call."""

    def __init__(self, catalog: Catalog, seed: object):
        self.catalog = catalog
        self.rng = random.Random(repr(seed))
        self.seed = seed
        self.tables = {t.name: _TableInfo(t) for t in catalog}

    # -- literal sampling ---------------------------------------------------

    def _column_kind(self, table: str, column: str) -> str:
        return self.catalog.table(table).column(column).dtype.name

    def _sample_value(self, table: str, column: str):
        """A raw value drawn from the column's actual data."""
        col = self.catalog.table(table).column(column)
        if col.data.size == 0:
            return 0
        raw = col.data[self.rng.randrange(col.data.size)]
        return raw

    def _sample_literal(self, table: str, column: str) -> ast.Literal:
        kind = self._column_kind(table, column)
        raw = self._sample_value(table, column)
        if kind == "int":
            value = int(raw) + self.rng.choice([-1, 0, 0, 0, 1])
            return ast.Literal(value, "int")
        if kind == "decimal":
            jitter = self.rng.choice([0.9, 1.0, 1.0, 1.1])
            value = float(f"{float(raw) * jitter:.2f}")
            return ast.Literal(value, "decimal")
        if kind == "date":
            day = int_to_date(int(raw) + self.rng.choice([-30, 0, 0, 30]))
            return ast.Literal(day.isoformat(), "date")
        # string: decode through the dictionary
        col = self.catalog.table(table).column(column)
        text = col.dictionary.decode([int(raw)])[0]
        return ast.Literal(text, "string")

    # -- predicate generation -----------------------------------------------

    def _plain_predicate(self, info: _TableInfo, qualifier: str | None) -> ast.Expr | None:
        """One non-correlated predicate on a random column of ``info``."""
        choices: list[str] = []
        if info.numeric_cols:
            choices += ["num_cmp", "num_between", "num_in"]
        if info.str_cols:
            choices += ["str_eq", "str_like"]
        if info.date_cols:
            choices += ["date_cmp"]
        if not choices:
            return None
        shape = self.rng.choice(choices)
        ref = lambda name: ast.ColumnRef(name, table=qualifier)

        if shape == "num_cmp":
            column = self.rng.choice(info.numeric_cols)
            op = self.rng.choice(_COMPARES)
            return ast.BinaryOp(op, ref(column), self._sample_literal(info.name, column))
        if shape == "num_between":
            column = self.rng.choice(info.numeric_cols)
            a = self._sample_literal(info.name, column)
            b = self._sample_literal(info.name, column)
            low, high = sorted([a, b], key=lambda l: l.value)
            return ast.BetweenExpr(ref(column), low, high,
                                   negated=self.rng.random() < 0.15)
        if shape == "num_in":
            column = self.rng.choice(info.numeric_cols)
            values = tuple(
                self._sample_literal(info.name, column)
                for _ in range(self.rng.randint(2, 4))
            )
            return ast.InExpr(ref(column), values=values,
                              negated=self.rng.random() < 0.2)
        if shape == "str_eq":
            column = self.rng.choice(info.str_cols)
            return ast.BinaryOp("=", ref(column), self._sample_literal(info.name, column))
        if shape == "str_like":
            column = self.rng.choice(info.str_cols)
            literal = self._sample_literal(info.name, column)
            text = str(literal.value)
            safe = "".join(ch for ch in text if ch.isalnum() or ch == " ")
            if len(safe) < 2:
                return ast.BinaryOp("=", ref(column), literal)
            if self.rng.random() < 0.5:
                pattern = safe[: self.rng.randint(1, min(4, len(safe)))] + "%"
            else:
                pattern = "%" + safe[-self.rng.randint(1, min(4, len(safe))):]
            return ast.LikeExpr(ref(column), pattern,
                                negated=self.rng.random() < 0.15)
        # date_cmp
        column = self.rng.choice(info.date_cols)
        op = self.rng.choice(["<", "<=", ">", ">=", "="])
        return ast.BinaryOp(op, ref(column), self._sample_literal(info.name, column))

    def _and_all(self, conjuncts: list[ast.Expr]) -> ast.Expr | None:
        expr = None
        for conjunct in conjuncts:
            expr = conjunct if expr is None else ast.BinaryOp("and", expr, conjunct)
        return expr

    # -- subquery bodies ----------------------------------------------------

    def _pick_correlation(self, outer_table: str):
        """A (outer_col, inner_table, inner_col) equality correlation."""
        pairs = []
        for a_table, a_col, b_table, b_col in JOIN_PAIRS:
            if a_table == outer_table and b_table != outer_table:
                pairs.append((a_col, b_table, b_col))
            elif b_table == outer_table and a_table != outer_table:
                pairs.append((b_col, a_table, a_col))
        return self.rng.choice(pairs) if pairs else None

    def _pick_ordered_correlation(self, outer_table: str, inner_table: str):
        """A same-kind (outer_col, inner_col) pair for non-eq correlation."""
        for a_table, a_col, b_table, b_col in ORDERED_PAIRS:
            if a_table == outer_table and b_table == inner_table:
                return a_col, b_col
            if b_table == outer_table and a_table == inner_table:
                return b_col, a_col
        return None

    def _inner_where(
        self,
        inner: _TableInfo,
        correlation: ast.Expr | None,
        extra_range: tuple[int, int] = (0, 2),
    ) -> ast.Expr | None:
        conjuncts: list[ast.Expr] = []
        if correlation is not None:
            conjuncts.append(correlation)
        for _ in range(self.rng.randint(*extra_range)):
            predicate = self._plain_predicate(inner, None)
            if predicate is not None:
                conjuncts.append(predicate)
        return self._and_all(conjuncts)

    def _subquery_where(
        self, outer: _TableInfo, depth: int
    ) -> tuple[ast.Expr | None, dict]:
        """The subquery conjunct of a WHERE-placement query."""
        kind = self.rng.choice(
            ["scalar", "scalar", "scalar", "exists", "in", "quantified"]
        )
        correlated = self.rng.random() > 0.12  # occasionally type-A/N
        picked = self._pick_correlation(outer.name) if correlated else None
        if picked is None:
            correlated = False
            # fall back to any inner table != outer for the uncorrelated case
            inner_name = self.rng.choice(
                [n for n in self.tables if n != outer.name]
            )
            outer_col = inner_col = None
        else:
            outer_col, inner_name, inner_col = picked
        inner = self.tables[inner_name]
        features = {"kind": kind, "correlated": correlated, "depth": 1 if correlated else 0}

        correlation = None
        if correlated:
            correlation = ast.BinaryOp(
                "=", ast.ColumnRef(inner_col), ast.ColumnRef(outer_col)
            )
            ordered = self._pick_ordered_correlation(outer.name, inner_name)
            rider_roll = self.rng.random()
            if rider_roll < 0.18:
                # disjunctive correlation (Guravannavar): the equality
                # only constrains one arm, so the shape is non-unnestable
                # and must take the nested path
                if ordered is not None:
                    o_col, i_col = ordered
                    op = self.rng.choice(["<", "<=", ">", ">="])
                    arm: ast.Expr | None = ast.BinaryOp(
                        op, ast.ColumnRef(i_col), ast.ColumnRef(o_col)
                    )
                else:
                    arm = self._plain_predicate(inner, None)
                if arm is not None:
                    correlation = ast.BinaryOp("or", correlation, arm)
                    features["disjunctive_correlation"] = True
            elif ordered is not None and rider_roll < 0.38:
                # a non-equality correlation rides along (Q5 family)
                o_col, i_col = ordered
                op = self.rng.choice(["<", "<=", ">", ">=", "!="])
                correlation = ast.BinaryOp(
                    "and",
                    correlation,
                    ast.BinaryOp(op, ast.ColumnRef(i_col), ast.ColumnRef(o_col)),
                )
                features["ordered_correlation"] = op
        where = self._inner_where(inner, correlation)

        # depth 2: nest one more subquery inside the inner WHERE
        if correlated and depth >= 2:
            nested = self._nested_subquery(inner, outer)
            if nested is not None:
                where = nested if where is None else ast.BinaryOp("and", where, nested)
                features["depth"] = 2

        if kind == "scalar":
            agg, operand = self._scalar_shape(outer, inner, where)
            features["aggregate"] = agg
            return operand, features
        if kind == "exists":
            stmt = ast.SelectStmt(
                items=(ast.SelectItem(ast.Star()),),
                from_items=(ast.TableRef(inner_name),),
                where=where,
            )
            expr: ast.Expr = ast.ExistsExpr(stmt)
            if self.rng.random() < 0.3:
                expr = ast.UnaryOp("not", expr)
                features["negated"] = True
            return expr, features
        if kind == "in":
            member_outer, member_inner = self._membership_pair(outer, inner)
            if member_outer is None:
                # no type-compatible pair: degrade to EXISTS
                stmt = ast.SelectStmt(
                    items=(ast.SelectItem(ast.Star()),),
                    from_items=(ast.TableRef(inner_name),),
                    where=where,
                )
                features["kind"] = "exists"
                return ast.ExistsExpr(stmt), features
            stmt = ast.SelectStmt(
                items=(ast.SelectItem(ast.ColumnRef(member_inner)),),
                from_items=(ast.TableRef(inner_name),),
                where=where,
            )
            negation_roll = self.rng.random()
            if negation_roll < 0.25:
                # NOT (x IN ...): same semantics as NOT IN, but the
                # negation arrives as a UnaryOp the unnester must unwrap
                # (or refuse) rather than as the InExpr flag
                features["not_wrapped"] = True
                return (
                    ast.UnaryOp(
                        "not",
                        ast.InExpr(
                            ast.ColumnRef(member_outer), query=stmt, negated=False
                        ),
                    ),
                    features,
                )
            return (
                ast.InExpr(
                    ast.ColumnRef(member_outer),
                    query=stmt,
                    negated=negation_roll < 0.5,
                ),
                features,
            )
        # quantified
        member_outer, member_inner = self._membership_pair(outer, inner)
        if member_outer is None:
            member_outer = self.rng.choice(outer.numeric_cols)
            member_inner = self.rng.choice(inner.numeric_cols)
        stmt = ast.SelectStmt(
            items=(ast.SelectItem(ast.ColumnRef(member_inner)),),
            from_items=(ast.TableRef(inner_name),),
            where=where,
        )
        op = self.rng.choice(_COMPARES)
        quantifier = self.rng.choice(["any", "all"])
        features["quantifier"] = f"{op} {quantifier}"
        return (
            ast.QuantifiedExpr(op, quantifier, ast.ColumnRef(member_outer), stmt),
            features,
        )

    def _membership_pair(self, outer: _TableInfo, inner: _TableInfo):
        """Type-compatible (outer_col, inner_col) for IN / quantified.

        Join-pair columns are preferred (hits happen); any same-kind
        numeric pair is the fallback.
        """
        for a_table, a_col, b_table, b_col in JOIN_PAIRS:
            if a_table == outer.name and b_table == inner.name:
                return a_col, b_col
            if b_table == outer.name and a_table == inner.name:
                return b_col, a_col
        if outer.int_cols and inner.int_cols:
            return self.rng.choice(outer.int_cols), self.rng.choice(inner.int_cols)
        if outer.dec_cols and inner.dec_cols:
            return self.rng.choice(outer.dec_cols), self.rng.choice(inner.dec_cols)
        return None, None

    def _scalar_shape(
        self, outer: _TableInfo, inner: _TableInfo, where: ast.Expr | None
    ) -> tuple[str, ast.Expr]:
        """An aggregate scalar subquery compared against the outer row."""
        agg = self.rng.choice(_AGGREGATES)
        if agg == "count" and self.rng.random() < 0.5:
            call = ast.FuncCall("count", star=True)
        else:
            target = self.rng.choice(inner.numeric_cols)
            call = ast.FuncCall(
                agg, (ast.ColumnRef(target),),
                distinct=(agg == "count" and self.rng.random() < 0.3),
            )
        stmt = ast.SelectStmt(
            items=(ast.SelectItem(call),),
            from_items=(ast.TableRef(inner.name),),
            where=where,
        )
        subquery: ast.Expr = ast.SubqueryExpr(stmt)
        if self.rng.random() < 0.2:
            factor = ast.Literal(self.rng.choice([0.2, 0.5, 2.0]), "decimal")
            subquery = ast.BinaryOp("*", factor, subquery)
        op = self.rng.choice(_COMPARES)
        if agg == "count":
            left: ast.Expr = ast.Literal(self.rng.randint(0, 4), "int")
        elif self.rng.random() < 0.6 and outer.numeric_cols:
            left = ast.ColumnRef(self.rng.choice(outer.numeric_cols))
        else:
            source = self.rng.choice(inner.numeric_cols)
            left = self._sample_literal(inner.name, source)
        return agg, ast.BinaryOp(op, left, subquery)

    def _nested_subquery(
        self, middle: _TableInfo, outermost: _TableInfo
    ) -> ast.Expr | None:
        """A depth-2 subquery inside ``middle``'s WHERE.

        Correlates to the middle table, or — the Figure 6 shape — to the
        outermost block's table.
        """
        corr_to = middle if self.rng.random() < 0.7 else outermost
        picked = self._pick_correlation(corr_to.name)
        if picked is None:
            return None
        outer_col, inner_name, inner_col = picked
        if inner_name in (middle.name, outermost.name):
            return None
        inner = self.tables[inner_name]
        correlation = ast.BinaryOp(
            "=", ast.ColumnRef(inner_col), ast.ColumnRef(outer_col)
        )
        where = self._inner_where(inner, correlation, extra_range=(0, 1))
        if self.rng.random() < 0.5:
            stmt = ast.SelectStmt(
                items=(ast.SelectItem(ast.Star()),),
                from_items=(ast.TableRef(inner_name),),
                where=where,
            )
            return ast.ExistsExpr(stmt)
        agg = self.rng.choice(["min", "max", "count"])
        call = (
            ast.FuncCall("count", star=True)
            if agg == "count"
            else ast.FuncCall(agg, (ast.ColumnRef(self.rng.choice(inner.numeric_cols)),))
        )
        stmt = ast.SelectStmt(
            items=(ast.SelectItem(call),),
            from_items=(ast.TableRef(inner_name),),
            where=where,
        )
        op = self.rng.choice(["<", "<=", ">", ">="]) if agg != "count" else ">"
        if agg == "count":
            left: ast.Expr = ast.Literal(0, "int")
        else:
            left = ast.ColumnRef(self.rng.choice(middle.numeric_cols))
        return ast.BinaryOp(op, left, ast.SubqueryExpr(stmt))

    # -- whole-query shapes --------------------------------------------------

    def _outer_table(self) -> _TableInfo:
        # weight toward small outer tables: the rowstore oracle pays
        # outer_rows * inner_rows per correlated subquery
        weighted = (
            ["region", "nation", "supplier", "customer"] * 3
            + ["orders", "part"] * 2
            + ["partsupp", "lineitem"]
        )
        return self.tables[self.rng.choice(weighted)]

    def generate(self) -> FuzzQuery:
        placement = self.rng.choices(
            ["where", "select", "having"], weights=[0.7, 0.15, 0.15]
        )[0]
        outer = self._outer_table()
        if placement == "where":
            stmt, features = self._where_query(outer)
        elif placement == "select":
            stmt, features = self._select_query(outer)
        else:
            stmt, features = self._having_query(outer)
        features["placement"] = placement
        features["outer"] = outer.name
        return FuzzQuery(self.seed, stmt, unparse(stmt), features)

    def _where_query(self, outer: _TableInfo):
        shape_roll = self.rng.random()
        if shape_roll < 0.22:
            return self._multi_subquery_query(outer)
        if shape_roll < 0.38:
            return self._both_sides_query(outer)
        depth = 2 if self.rng.random() < 0.15 else 1
        subquery_conjunct, features = self._subquery_where(outer, depth)
        conjuncts: list[ast.Expr] = []
        for _ in range(self.rng.randint(0, 2)):
            predicate = self._plain_predicate(outer, None)
            if predicate is not None:
                conjuncts.append(predicate)
        # plain predicates first: the rowstore applies conjuncts in
        # order, so cheap filters bound the per-tuple subquery loop
        conjuncts.append(subquery_conjunct)
        return self._finish_where_stmt(outer, self._and_all(conjuncts)), features

    def _multi_subquery_query(self, outer: _TableInfo):
        """Two independent SUBQs in one WHERE, AND- or OR-combined.

        This is the shape that drives the multi-subquery evaluator
        (nested loops per SUBQ, per-subquery caches) and — OR-combined —
        the unnester's one-SUBQ-per-conjunct refusal.
        """
        first, f1 = self._subquery_where(outer, 1)
        second, f2 = self._subquery_where(outer, 1)
        combiner = "or" if self.rng.random() < 0.5 else "and"
        features = {
            "kind": f"{f1['kind']}+{f2['kind']}",
            "correlated": f1["correlated"] or f2["correlated"],
            "depth": max(f1["depth"], f2["depth"]),
            "num_subqueries": 2,
            "combiner": combiner,
        }
        conjuncts: list[ast.Expr] = []
        for _ in range(self.rng.randint(0, 1)):
            predicate = self._plain_predicate(outer, None)
            if predicate is not None:
                conjuncts.append(predicate)
        if combiner == "or":
            conjuncts.append(ast.BinaryOp("or", first, second))
        else:
            conjuncts.extend([first, second])
        return self._finish_where_stmt(outer, self._and_all(conjuncts)), features

    def _both_sides_query(self, outer: _TableInfo):
        """Scalar subqueries on *both* sides of one comparison."""
        left, left_correlated = self._scalar_operand(outer)
        right, right_correlated = self._scalar_operand(outer)
        op = self.rng.choice(_COMPARES)
        correlated = left_correlated or right_correlated
        features = {
            "kind": "scalar+scalar",
            "correlated": correlated,
            "depth": 1 if correlated else 0,
            "num_subqueries": 2,
            "both_sides": True,
        }
        conjuncts: list[ast.Expr] = []
        for _ in range(self.rng.randint(0, 1)):
            predicate = self._plain_predicate(outer, None)
            if predicate is not None:
                conjuncts.append(predicate)
        conjuncts.append(ast.BinaryOp(op, left, right))
        return self._finish_where_stmt(outer, self._and_all(conjuncts)), features

    def _scalar_operand(self, outer: _TableInfo) -> tuple[ast.Expr, bool]:
        """One aggregate scalar subquery usable as a comparison operand."""
        picked = self._pick_correlation(outer.name)
        correlated = picked is not None and self.rng.random() > 0.25
        if correlated:
            outer_col, inner_name, inner_col = picked
            correlation: ast.Expr | None = ast.BinaryOp(
                "=", ast.ColumnRef(inner_col), ast.ColumnRef(outer_col)
            )
        else:
            inner_name = self.rng.choice([n for n in self.tables if n != outer.name])
            correlation = None
        inner = self.tables[inner_name]
        where = self._inner_where(inner, correlation, extra_range=(0, 1))
        agg = self.rng.choice(_AGGREGATES)
        if agg == "count":
            call = ast.FuncCall("count", star=True)
        else:
            call = ast.FuncCall(
                agg, (ast.ColumnRef(self.rng.choice(inner.numeric_cols)),)
            )
        stmt = ast.SelectStmt(
            items=(ast.SelectItem(call),),
            from_items=(ast.TableRef(inner_name),),
            where=where,
        )
        expr: ast.Expr = ast.SubqueryExpr(stmt)
        if self.rng.random() < 0.2:
            factor = ast.Literal(self.rng.choice([0.2, 0.5, 2.0]), "decimal")
            expr = ast.BinaryOp("*", factor, expr)
        return expr, correlated

    def _finish_where_stmt(
        self, outer: _TableInfo, where: ast.Expr | None
    ) -> ast.SelectStmt:
        columns = self.rng.sample(
            outer.numeric_cols, k=min(self.rng.randint(1, 3), len(outer.numeric_cols))
        )
        items = tuple(ast.SelectItem(ast.ColumnRef(c)) for c in columns)
        distinct = self.rng.random() < 0.1
        order_by = ()
        if self.rng.random() < 0.3:
            order_by = tuple(
                ast.OrderItem(ast.ColumnRef(c), descending=self.rng.random() < 0.5)
                for c in columns
            )
        return ast.SelectStmt(
            items=items,
            from_items=(ast.TableRef(outer.name),),
            where=where,
            order_by=order_by,
            distinct=distinct,
        )

    def _select_query(self, outer: _TableInfo):
        """A scalar subquery in the SELECT list."""
        picked = self._pick_correlation(outer.name)
        features: dict = {"kind": "scalar", "depth": 1}
        if picked is None or self.rng.random() < 0.1:
            inner_name = self.rng.choice([n for n in self.tables if n != outer.name])
            correlation = None
            features["correlated"] = False
            features["depth"] = 0
        else:
            outer_col, inner_name, inner_col = picked
            correlation = ast.BinaryOp(
                "=", ast.ColumnRef(inner_col), ast.ColumnRef(outer_col)
            )
            features["correlated"] = True
        inner = self.tables[inner_name]
        where = self._inner_where(inner, correlation, extra_range=(0, 1))
        agg = self.rng.choice(_AGGREGATES)
        features["aggregate"] = agg
        if agg == "count" and self.rng.random() < 0.5:
            call = ast.FuncCall("count", star=True)
        else:
            call = ast.FuncCall(agg, (ast.ColumnRef(self.rng.choice(inner.numeric_cols)),))
        sub = ast.SubqueryExpr(
            ast.SelectStmt(
                items=(ast.SelectItem(call),),
                from_items=(ast.TableRef(inner_name),),
                where=where,
            )
        )
        sub_item: ast.Expr = sub
        if self.rng.random() < 0.2:
            sub_item = ast.BinaryOp(
                "*", ast.Literal(2, "int"), sub
            )
        key = self.rng.choice(outer.numeric_cols)
        items = (
            ast.SelectItem(ast.ColumnRef(key)),
            ast.SelectItem(sub_item, alias="v"),
        )
        conjuncts = []
        for _ in range(self.rng.randint(0, 1)):
            predicate = self._plain_predicate(outer, None)
            if predicate is not None:
                conjuncts.append(predicate)
        stmt = ast.SelectStmt(
            items=items,
            from_items=(ast.TableRef(outer.name),),
            where=self._and_all(conjuncts),
        )
        return stmt, features

    def _having_query(self, outer: _TableInfo):
        """GROUP BY with a scalar subquery in HAVING, correlated on the
        group key (the shape the planner supports above Aggregate)."""
        picked = self._pick_correlation(outer.name)
        features: dict = {"kind": "scalar", "depth": 1}
        group_col = None
        if picked is not None:
            outer_col, inner_name, inner_col = picked
            group_col = outer_col
        if picked is None or self.rng.random() < 0.15:
            inner_name = self.rng.choice([n for n in self.tables if n != outer.name])
            inner_col = None
            features["correlated"] = False
            features["depth"] = 0
            if group_col is None:
                group_col = self.rng.choice(outer.int_cols or outer.numeric_cols)
        else:
            features["correlated"] = True
        inner = self.tables[inner_name]
        correlation = (
            ast.BinaryOp("=", ast.ColumnRef(inner_col), ast.ColumnRef(group_col))
            if features["correlated"]
            else None
        )
        where = self._inner_where(inner, correlation, extra_range=(0, 1))
        inner_agg = self.rng.choice(_AGGREGATES)
        features["aggregate"] = inner_agg
        if inner_agg == "count":
            call = ast.FuncCall("count", star=True)
        else:
            call = ast.FuncCall(
                inner_agg, (ast.ColumnRef(self.rng.choice(inner.numeric_cols)),)
            )
        sub = ast.SubqueryExpr(
            ast.SelectStmt(
                items=(ast.SelectItem(call),),
                from_items=(ast.TableRef(inner_name),),
                where=where,
            )
        )
        outer_agg_col = self.rng.choice(outer.numeric_cols)
        outer_agg = self.rng.choice(["min", "max", "sum", "avg", "count"])
        agg_call = ast.FuncCall(outer_agg, (ast.ColumnRef(outer_agg_col),))
        having: ast.Expr = ast.BinaryOp(self.rng.choice(_COMPARES), agg_call, sub)
        if self.rng.random() < 0.3:
            having = ast.BinaryOp(
                "and",
                ast.BinaryOp(">", ast.FuncCall("count", star=True), ast.Literal(0, "int")),
                having,
            )
        items = (
            ast.SelectItem(ast.ColumnRef(group_col)),
            ast.SelectItem(ast.FuncCall(outer_agg, (ast.ColumnRef(outer_agg_col),)), alias="m"),
        )
        stmt = ast.SelectStmt(
            items=items,
            from_items=(ast.TableRef(outer.name),),
            where=None,
            group_by=(ast.ColumnRef(group_col),),
            having=having,
        )
        return stmt, features


def generate_query(catalog: Catalog, seed: int, index: int) -> FuzzQuery:
    """The ``index``-th query of a fuzz run seeded with ``seed``."""
    return QueryGenerator(catalog, (seed, index)).generate()
