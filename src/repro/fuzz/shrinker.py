"""Delta-debugging a failing fuzz query down to a minimal reproducer.

Classic greedy shrinking over the AST: each pass proposes candidate
simplifications (drop a conjunct anywhere in the query tree, keep one
disjunct of an OR — which shrinks each SUBQ of a multi-subquery
predicate independently and can drop one entirely — unwrap a NOT,
replace a scalar subquery operand with a literal, drop SELECT items,
strip ORDER BY / DISTINCT / LIMIT / HAVING, move literals toward
zero), a candidate is kept when the caller-provided
``still_fails`` predicate confirms the divergence survives, and the
loop runs to a fixpoint.  The predicate is expected to swallow engine
errors and return ``False`` for candidates that stop being valid
queries — invalid shrinks are simply rejected.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

from ..sql import ast, unparse

_MAX_ATTEMPTS = 400


def shrink(
    stmt: ast.SelectStmt,
    still_fails: Callable[[ast.SelectStmt], bool],
    max_attempts: int = _MAX_ATTEMPTS,
) -> ast.SelectStmt:
    """Greedy fixpoint shrink of ``stmt`` preserving ``still_fails``."""
    current = stmt
    budget = max_attempts
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in _candidates(current):
            if budget <= 0:
                break
            if _size(candidate) >= _size(current):
                continue
            budget -= 1
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False
            if failing:
                current = candidate
                improved = True
                break  # restart candidate enumeration from the smaller tree
    return current


def _size(stmt: ast.SelectStmt) -> int:
    return len(unparse(stmt))


# -- candidate enumeration --------------------------------------------------


def _candidates(stmt: ast.SelectStmt) -> Iterator[ast.SelectStmt]:
    yield from _clause_drops(stmt)
    yield from _conjunct_drops(stmt)
    yield from _rewrite_candidates(stmt)
    yield from _select_item_drops(stmt)
    yield from _literal_shrinks(stmt)


def _clause_drops(stmt: ast.SelectStmt) -> Iterator[ast.SelectStmt]:
    if stmt.order_by:
        yield dataclasses.replace(stmt, order_by=())
    if stmt.distinct:
        yield dataclasses.replace(stmt, distinct=False)
    if stmt.limit is not None:
        yield dataclasses.replace(stmt, limit=None)
    if stmt.having is not None:
        yield dataclasses.replace(stmt, having=None)


def _select_item_drops(stmt: ast.SelectStmt) -> Iterator[ast.SelectStmt]:
    if len(stmt.items) <= 1:
        return
    for i in range(len(stmt.items)):
        items = stmt.items[:i] + stmt.items[i + 1:]
        yield dataclasses.replace(stmt, items=items)


def _conjunct_drops(stmt: ast.SelectStmt) -> Iterator[ast.SelectStmt]:
    """Every version of ``stmt`` with one WHERE/HAVING conjunct removed,
    at any nesting depth (subquery bodies included)."""
    total = _count_conjunct_sites(stmt)
    for site in range(total):
        dropped = _drop_site(stmt, [site])
        if dropped is not None:
            yield dropped


def _count_conjunct_sites(stmt: ast.SelectStmt) -> int:
    count = 0
    for block, clause in _walk_clauses(stmt):
        count += len(ast.split_conjuncts(clause))
    return count


def _walk_clauses(stmt: ast.SelectStmt):
    """Yield (statement, clause-expr) for WHERE/HAVING of every block."""
    yield stmt, stmt.where
    yield stmt, stmt.having
    for sub in _subqueries_of(stmt):
        yield from _walk_clauses(sub)


def _subqueries_of(stmt: ast.SelectStmt) -> list[ast.SelectStmt]:
    found: list[ast.SelectStmt] = []

    def visit_expr(expr: ast.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, (ast.SubqueryExpr, ast.ExistsExpr, ast.QuantifiedExpr)):
            found.append(expr.query)
            return
        if isinstance(expr, ast.InExpr):
            if expr.query is not None:
                found.append(expr.query)
            return
        for child in _children(expr):
            visit_expr(child)

    for item in stmt.items:
        if not isinstance(item.expr, ast.Star):
            visit_expr(item.expr)
    visit_expr(stmt.where)
    visit_expr(stmt.having)
    for from_item in stmt.from_items:
        if isinstance(from_item, ast.DerivedTable):
            found.append(from_item.query)
    return found


def _children(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.FuncCall):
        return list(expr.args)
    if isinstance(expr, ast.BetweenExpr):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.LikeExpr):
        return [expr.operand]
    if isinstance(expr, ast.InExpr):
        return [expr.operand, *expr.values]
    return []


def _drop_site(stmt: ast.SelectStmt, counter: list[int]) -> ast.SelectStmt | None:
    """Rebuild ``stmt`` with the ``counter[0]``-th conjunct site removed.

    ``counter`` is a single-element mutable cell decremented across the
    recursive walk; the site ordering matches `_walk_clauses`.
    """
    where = _drop_from_clause(stmt.where, counter)
    having = _drop_from_clause(stmt.having, counter)
    new = dataclasses.replace(stmt, where=where, having=having)
    return _rewrite_subqueries(new, counter)


def _drop_from_clause(clause: ast.Expr | None, counter: list[int]) -> ast.Expr | None:
    if clause is None:
        return None
    conjuncts = ast.split_conjuncts(clause)
    kept: list[ast.Expr] = []
    for conjunct in conjuncts:
        if counter[0] == 0:
            counter[0] -= 1
            continue  # this is the site being dropped
        counter[0] -= 1
        kept.append(conjunct)
    if len(kept) == len(conjuncts):
        return clause  # nothing dropped here; keep original shape
    expr: ast.Expr | None = None
    for conjunct in kept:
        expr = conjunct if expr is None else ast.BinaryOp("and", expr, conjunct)
    return expr


def _rewrite_subqueries(stmt: ast.SelectStmt, counter: list[int]) -> ast.SelectStmt:
    """Apply `_drop_site` recursively to every nested subquery."""

    def rewrite_expr(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.SubqueryExpr):
            return ast.SubqueryExpr(_drop_site(expr.query, counter))
        if isinstance(expr, ast.ExistsExpr):
            return ast.ExistsExpr(_drop_site(expr.query, counter), expr.negated)
        if isinstance(expr, ast.QuantifiedExpr):
            return ast.QuantifiedExpr(
                expr.op, expr.quantifier, rewrite_expr(expr.operand),
                _drop_site(expr.query, counter),
            )
        if isinstance(expr, ast.InExpr):
            if expr.query is not None:
                return ast.InExpr(
                    rewrite_expr(expr.operand),
                    query=_drop_site(expr.query, counter),
                    negated=expr.negated,
                )
            return expr
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(expr.op, rewrite_expr(expr.left), rewrite_expr(expr.right))
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, rewrite_expr(expr.operand))
        if isinstance(expr, ast.BetweenExpr):
            return ast.BetweenExpr(
                rewrite_expr(expr.operand), rewrite_expr(expr.low),
                rewrite_expr(expr.high), expr.negated,
            )
        return expr

    items = tuple(
        item if isinstance(item.expr, ast.Star)
        else ast.SelectItem(rewrite_expr(item.expr), item.alias)
        for item in stmt.items
    )
    where = rewrite_expr(stmt.where) if stmt.where is not None else None
    having = rewrite_expr(stmt.having) if stmt.having is not None else None
    from_items = tuple(
        ast.DerivedTable(_drop_site(f.query, counter), f.alias)
        if isinstance(f, ast.DerivedTable) else f
        for f in stmt.from_items
    )
    return dataclasses.replace(
        stmt, items=items, where=where, having=having, from_items=from_items
    )


def _map_expr(expr: ast.Expr, fn) -> ast.Expr:
    """Rebuild ``expr`` top-down; ``fn`` returning a node replaces the
    subtree (no further descent), returning None keeps descending."""
    replaced = fn(expr)
    if replaced is not None:
        return replaced
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _map_expr(expr.left, fn), _map_expr(expr.right, fn))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _map_expr(expr.operand, fn))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name, tuple(_map_expr(a, fn) for a in expr.args),
            expr.star, expr.distinct,
        )
    if isinstance(expr, ast.BetweenExpr):
        return ast.BetweenExpr(
            _map_expr(expr.operand, fn), _map_expr(expr.low, fn),
            _map_expr(expr.high, fn), expr.negated,
        )
    if isinstance(expr, ast.LikeExpr):
        return ast.LikeExpr(_map_expr(expr.operand, fn), expr.pattern, expr.negated)
    if isinstance(expr, ast.InExpr):
        return ast.InExpr(
            _map_expr(expr.operand, fn),
            query=_map_stmt(expr.query, fn) if expr.query is not None else None,
            values=tuple(_map_expr(v, fn) for v in expr.values),
            negated=expr.negated,
        )
    if isinstance(expr, ast.SubqueryExpr):
        return ast.SubqueryExpr(_map_stmt(expr.query, fn))
    if isinstance(expr, ast.ExistsExpr):
        return ast.ExistsExpr(_map_stmt(expr.query, fn), expr.negated)
    if isinstance(expr, ast.QuantifiedExpr):
        return ast.QuantifiedExpr(
            expr.op, expr.quantifier, _map_expr(expr.operand, fn),
            _map_stmt(expr.query, fn),
        )
    return expr


def _map_stmt(stmt: ast.SelectStmt, fn) -> ast.SelectStmt:
    items = tuple(
        item if isinstance(item.expr, ast.Star)
        else ast.SelectItem(_map_expr(item.expr, fn), item.alias)
        for item in stmt.items
    )
    where = _map_expr(stmt.where, fn) if stmt.where is not None else None
    having = _map_expr(stmt.having, fn) if stmt.having is not None else None
    from_items = tuple(
        ast.DerivedTable(_map_stmt(f.query, fn), f.alias)
        if isinstance(f, ast.DerivedTable) else f
        for f in stmt.from_items
    )
    return dataclasses.replace(
        stmt, items=items, where=where, having=having, from_items=from_items
    )


def _proposals(expr: ast.Expr) -> list[ast.Expr]:
    """Local simplifications of one expression node."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "or":
        # keep either disjunct — shrinks each SUBQ of an OR-combined
        # pair independently and can drop one of them entirely
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp) and expr.op == "not":
        return [expr.operand]
    if isinstance(expr, ast.SubqueryExpr):
        # a both-sides comparison degrades to a one-subquery comparison
        return [ast.Literal(0, "int")]
    # the next two target kernel-fusion divergences: a fused predicate
    # chain is one mask kernel per comparison / IN membership, so
    # halving an IN-list or degrading BETWEEN to one bound isolates
    # which mask of the fused chain disagrees with the unfused run
    if isinstance(expr, ast.InExpr) and expr.query is None and len(expr.values) > 1:
        half = len(expr.values) // 2
        return [
            ast.InExpr(expr.operand, values=expr.values[:half],
                       negated=expr.negated),
            ast.InExpr(expr.operand, values=expr.values[half:],
                       negated=expr.negated),
        ]
    if isinstance(expr, ast.BetweenExpr) and not expr.negated:
        return [
            ast.BinaryOp(">=", expr.operand, expr.low),
            ast.BinaryOp("<=", expr.operand, expr.high),
        ]
    return []


def _rewrite_candidates(stmt: ast.SelectStmt) -> Iterator[ast.SelectStmt]:
    """One local `_proposals` rewrite applied at each site in turn."""
    count = [0]

    def counting(expr: ast.Expr) -> None:
        count[0] += len(_proposals(expr))
        return None

    _map_stmt(stmt, counting)
    for site in range(count[0]):
        state = [site, False]  # [remaining offset, consumed]

        def rewriting(expr: ast.Expr):
            if state[1]:
                return None
            options = _proposals(expr)
            if not options:
                return None
            if state[0] < len(options):
                choice = options[state[0]]
                state[1] = True
                return choice
            state[0] -= len(options)
            return None

        yield _map_stmt(stmt, rewriting)


def _literal_shrinks(stmt: ast.SelectStmt) -> Iterator[ast.SelectStmt]:
    """Versions of ``stmt`` with one numeric literal moved toward zero."""
    literals: list[ast.Literal] = []

    def collect(node: ast.SelectStmt) -> None:
        def visit(expr: ast.Expr | None) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.Literal) and expr.kind in ("int", "decimal"):
                if expr.value:
                    literals.append(expr)
                return
            for child in _children(expr):
                visit(child)

        for item in node.items:
            if not isinstance(item.expr, ast.Star):
                visit(item.expr)
        visit(node.where)
        visit(node.having)
        for sub in _subqueries_of(node):
            collect(sub)

    collect(stmt)
    for target in literals:
        if target.kind == "int":
            smaller = ast.Literal(int(target.value) // 2, "int")
        else:
            smaller = ast.Literal(float(f"{float(target.value) / 2:.2f}"), "decimal")
        yield _map_stmt(stmt, lambda e: smaller if e is target else None)
