"""Parser tests for the dialect extensions (quantifiers, intervals)."""

import pytest

from repro.errors import SqlError
from repro.sql import ast, parse


class TestQuantifiedSyntax:
    def test_any(self):
        stmt = parse("SELECT a FROM t WHERE a > ANY (SELECT b FROM u)")
        expr = stmt.where
        assert isinstance(expr, ast.QuantifiedExpr)
        assert expr.op == ">" and expr.quantifier == "any"

    def test_all(self):
        expr = parse("SELECT a FROM t WHERE a <= ALL (SELECT b FROM u)").where
        assert expr.quantifier == "all"

    def test_some_is_any(self):
        expr = parse("SELECT a FROM t WHERE a = SOME (SELECT b FROM u)").where
        assert expr.quantifier == "any"

    def test_every_operator(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            expr = parse(
                f"SELECT a FROM t WHERE a {op} ALL (SELECT b FROM u)"
            ).where
            assert expr.op == op

    def test_quantifier_requires_parenthesised_select(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE a > ANY b")

    def test_correlated_quantified(self):
        stmt = parse(
            "SELECT a FROM t WHERE a > ALL (SELECT b FROM u WHERE u.k = t.k)"
        )
        assert isinstance(stmt.where, ast.QuantifiedExpr)

    def test_quantified_inside_boolean(self):
        stmt = parse(
            "SELECT a FROM t WHERE a > ANY (SELECT b FROM u) AND a < 5"
        )
        conjuncts = ast.split_conjuncts(stmt.where)
        assert len(conjuncts) == 2
        assert isinstance(conjuncts[0], ast.QuantifiedExpr)


class TestIntervalSyntax:
    def test_plus_interval(self):
        stmt = parse(
            "SELECT a FROM t WHERE a < DATE '1993-07-01' + INTERVAL '3' MONTH"
        )
        addition = stmt.where.right
        assert isinstance(addition.right, ast.IntervalLiteral)

    def test_minus_interval(self):
        stmt = parse(
            "SELECT a FROM t WHERE a < DATE '1993-07-01' - INTERVAL '1' YEAR"
        )
        assert stmt.where.right.op == "-"

    def test_interval_str(self):
        literal = ast.IntervalLiteral(3, "month")
        assert "INTERVAL '3' MONTH" in str(literal)


class TestAstRendering:
    """__str__ of AST nodes feeds error messages and EXPLAIN output."""

    def test_binary(self):
        stmt = parse("SELECT a FROM t WHERE a = 1")
        assert str(stmt.where) == "(a = 1)"

    def test_like(self):
        stmt = parse("SELECT a FROM t WHERE a LIKE 'x%'")
        assert "like 'x%'" in str(stmt.where)

    def test_exists(self):
        stmt = parse("SELECT a FROM t WHERE EXISTS (SELECT * FROM u)")
        assert "exists" in str(stmt.where)

    def test_quantified(self):
        stmt = parse("SELECT a FROM t WHERE a > ALL (SELECT b FROM u)")
        assert "ALL" in str(stmt.where)

    def test_func(self):
        stmt = parse("SELECT min(a) FROM t")
        assert str(stmt.items[0].expr) == "min(a)"
