"""Evaluation of bound expressions over device relations.

Every array-producing step charges the device for one primitive kernel
launch via :mod:`repro.gpu.kernels`, so expression complexity shows up
in kernel counts exactly as compiled predicates would.

Correlated :class:`~repro.plan.expressions.ParamRef` leaves read the
current outer-tuple value from ``env`` — the drive program maintains
this environment as it iterates.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ExecutionError
from ..gpu import kernels
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
from .relation import Relation

_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def evaluate(
    expr: PlanExpr,
    rel: Relation,
    ctx,
    env: dict[str, float] | None = None,
):
    """Evaluate ``expr`` over ``rel`` -> numpy array or Python scalar."""
    device = ctx.device
    if isinstance(expr, ColRef):
        return rel.column(expr.qual).data
    if isinstance(expr, AggRef):
        return rel.column(expr.name).data
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ParamRef):
        if env is None or expr.qual not in env:
            raise ExecutionError(f"unbound correlated parameter {expr.qual}")
        return env[expr.qual]
    if isinstance(expr, Compare):
        return _compare(expr, rel, ctx, env)
    if isinstance(expr, BoolOp):
        return _boolop(expr, rel, ctx, env)
    if isinstance(expr, NotOp):
        operand = evaluate(expr.operand, rel, ctx, env)
        if isinstance(operand, np.ndarray):
            return kernels.logical_not(device, operand)
        return not operand
    if isinstance(expr, InCodes):
        operand = evaluate(expr.operand, rel, ctx, env)
        has_codes = len(expr.codes) > 0
        codes_have_null = any(
            isinstance(code, float) and math.isnan(code) for code in expr.codes
        )
        if not isinstance(operand, np.ndarray):
            if has_codes and isinstance(operand, float) and math.isnan(operand):
                return False  # NULL IN (non-empty) is UNKNOWN either way
            result = operand in expr.codes
            if expr.negated:
                # no match + NULL in the list -> UNKNOWN, never TRUE
                return False if (not result and codes_have_null) else not result
            return result
        mask = kernels.isin(device, operand, expr.code_array)
        if not expr.negated:
            return mask
        if codes_have_null:
            # NOT IN over a list containing NULL keeps no row: matches
            # flip to FALSE and non-matches are UNKNOWN.
            return np.zeros(operand.size, dtype=bool)
        mask = kernels.logical_not(device, mask)
        if has_codes and np.issubdtype(operand.dtype, np.floating):
            # NULL NOT IN (non-empty) is UNKNOWN, never TRUE.
            device.launch("nan_check", operand.size)
            mask = kernels.logical_and(device, mask, ~np.isnan(operand))
        return mask
    if isinstance(expr, Arith):
        left = evaluate(expr.left, rel, ctx, env)
        right = evaluate(expr.right, rel, ctx, env)
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            return _python_arith(expr.op, left, right)
        size = len(left) if isinstance(left, np.ndarray) else len(right)
        return kernels.arithmetic(device, expr.op, left, right, size)
    if isinstance(expr, SubqueryRef):
        raise ExecutionError(
            "SUBQ reached the expression evaluator — the drive program "
            "must substitute subquery results before predicate evaluation"
        )
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _compare(expr: Compare, rel: Relation, ctx, env):
    device = ctx.device
    left = evaluate(expr.left, rel, ctx, env)
    right = evaluate(expr.right, rel, ctx, env)
    left_is_array = isinstance(left, np.ndarray)
    right_is_array = isinstance(right, np.ndarray)
    if left_is_array and right_is_array:
        return kernels.compare_arrays(device, left, right, expr.op)
    if left_is_array:
        return kernels.compare_scalar(device, left, expr.op, right)
    if right_is_array:
        return kernels.compare_scalar(device, right, _MIRROR[expr.op], left)
    return _python_compare(expr.op, left, right)


def _boolop(expr: BoolOp, rel: Relation, ctx, env):
    device = ctx.device
    left = evaluate(expr.left, rel, ctx, env)
    right = evaluate(expr.right, rel, ctx, env)
    left_is_array = isinstance(left, np.ndarray)
    right_is_array = isinstance(right, np.ndarray)
    if left_is_array and right_is_array:
        if expr.op == "and":
            return kernels.logical_and(device, left, right)
        return kernels.logical_or(device, left, right)
    if not left_is_array and not right_is_array:
        return (left and right) if expr.op == "and" else (left or right)
    array = left if left_is_array else right
    scalar = right if left_is_array else left
    if expr.op == "and":
        return array if scalar else np.zeros(len(array), dtype=bool)
    return np.ones(len(array), dtype=bool) if scalar else array


def _python_compare(op: str, left, right) -> bool:
    if isinstance(left, float) and np.isnan(left):
        return False
    if isinstance(right, float) and np.isnan(right):
        return False
    table = {
        "=": left == right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }
    return bool(table[op])


def _python_arith(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return math.nan if right == 0 else left / right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def _nan_mask(value, size: int) -> np.ndarray:
    """Per-row NULL (NaN) flags for an evaluated operand."""
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            return np.isnan(value)
        return np.zeros(size, dtype=bool)
    if isinstance(value, float) and math.isnan(value):
        return np.ones(size, dtype=bool)
    return np.zeros(size, dtype=bool)


def _eval_in_three_valued(
    ctx, rel: Relation, operand_expr: PlanExpr, members, empty, set_null,
    negated: bool,
):
    """``x [NOT] IN S`` per row of ``rel`` -> ``(truth, known)`` arrays.

    TRUE on a match, FALSE when S is empty, and UNKNOWN when there is no
    match but x is NULL or S contains a NULL (the NULL *might* have been
    x); NOT IN negates the known rows.  ``members(x)`` flags the rows
    whose S holds x; ``empty`` and ``set_null`` describe each row's S,
    as arrays or as one bool when every row shares the same S.
    """
    size = rel.num_rows
    operand = evaluate(operand_expr, rel, ctx, None)
    if not isinstance(operand, np.ndarray):
        operand = np.full(size, operand, dtype=np.float64)
    ctx.device.launch("in_membership", size, work=2.0)
    membership = members(operand)
    operand_null = _nan_mask(operand, size)
    ctx.device.launch("null_scan", size)
    known = ~(~(membership | empty) & (operand_null | set_null))
    return (membership != negated) & known, known


def _eval_three_valued(
    expr: PlanExpr, rel: Relation, ctx, known_cols: dict[str, np.ndarray]
):
    """Kleene (K3) evaluation -> ``(truth, known)`` boolean arrays.

    Invariant: ``truth`` is False wherever ``known`` is False, so the
    truth array doubles directly as the WHERE filter mask (SQL keeps
    only TRUE rows; UNKNOWN is excluded just like FALSE).  NULL is NaN
    throughout, including marker columns for invalid scalar subqueries;
    ``known_cols`` carries knownness for boolean markers (IN membership)
    whose UNKNOWN cannot be encoded in the data itself.
    """
    device = ctx.device
    size = rel.num_rows
    if isinstance(expr, BoolOp):
        lt, lk = _eval_three_valued(expr.left, rel, ctx, known_cols)
        rt, rk = _eval_three_valued(expr.right, rel, ctx, known_cols)
        if expr.op == "and":
            truth = kernels.logical_and(device, lt, rt)
            known = (lk & rk) | (lk & ~lt) | (rk & ~rt)
        else:
            truth = kernels.logical_or(device, lt, rt)
            known = (lk & rk) | lt | rt
        return truth, known
    if isinstance(expr, NotOp):
        truth, known = _eval_three_valued(expr.operand, rel, ctx, known_cols)
        return (~truth) & known, known
    if isinstance(expr, Compare):
        left = evaluate(expr.left, rel, ctx, None)
        right = evaluate(expr.right, rel, ctx, None)
        left_is_array = isinstance(left, np.ndarray)
        right_is_array = isinstance(right, np.ndarray)
        if left_is_array and right_is_array:
            raw = kernels.compare_arrays(device, left, right, expr.op)
        elif left_is_array:
            raw = kernels.compare_scalar(device, left, expr.op, right)
        elif right_is_array:
            raw = kernels.compare_scalar(device, right, _MIRROR[expr.op], left)
        else:
            raw = np.full(size, _python_compare(expr.op, left, right))
        known = ~(_nan_mask(left, size) | _nan_mask(right, size))
        return raw & known, known
    if isinstance(expr, AggRef):
        data = rel.column(expr.name).data
        known = known_cols.get(expr.name)
        if known is None:
            known = ~_nan_mask(data, size)
        return data.astype(bool) & known, known
    if isinstance(expr, InCodes):
        # evaluate() already folds UNKNOWN membership to False; recover
        # knownness for the NULL-probe case so NOT does not flip it.
        truth = evaluate(expr, rel, ctx, None)
        if not isinstance(truth, np.ndarray):
            truth = np.full(size, bool(truth))
        known = np.ones(size, dtype=bool)
        if len(expr.codes):
            operand = evaluate(expr.operand, rel, ctx, None)
            known = ~_nan_mask(operand, size)
        return truth & known, known
    raw = evaluate(expr, rel, ctx, None)
    if not isinstance(raw, np.ndarray):
        raw = np.full(size, bool(raw))
    return raw.astype(bool), np.ones(size, dtype=bool)
