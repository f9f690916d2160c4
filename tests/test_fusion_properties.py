"""Property tests for kernel fusion: correctness is free, cost is less.

Hypothesis drives generated predicate chains and compaction tails
through the fused and unfused paths and checks the two invariants the
whole subsystem rests on:

* **bit-identity** — a fused chain selects exactly the rows the
  unfused chain selects (the numpy computation is shared; only the
  modelled charging differs);
* **monotone launches** — the fused run never launches more kernels
  than the unfused run (it fuses or it leaves alone, it never splits).

Plus the tuner's staleness contract — a cached decision is never
served across a ``CostCoefficients.version`` bump — and the theorem the
plan-time fusion decision rests on: through every *launch-only* site
kind the fused run absorbs exactly the kernels the unfused run
launches, at the same widths, so

    fused_ns == unfused_ns - (fused_kernels - fused_launches) * C

and fusing can never lose.  A fused path that silently widens fails
here instead of shipping a wrong static decision; the one site that
does widen (``filter_rel_multi`` over >= 2 predicates) has its
counter-example at the bottom, which is why it is still measured.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FusionTuner, NestGPU
from repro.engine import EngineOptions, ExecutionContext
from repro.engine import operators as ops
from repro.gpu import Device, DeviceSpec, kernels
from repro.plan.expressions import BoolOp, ColRef, Compare, Const

_OPS = ["<", "<=", ">", ">=", "=", "!="]
_COLUMNS = [("s_col1", 12), ("s_col2", 50), ("s_col3", 8)]


@st.composite
def predicate_chains(draw):
    """1..5 comparison predicates over the synthetic S table."""
    size = draw(st.integers(min_value=1, max_value=5))
    chain = []
    for _ in range(size):
        name, hi = draw(st.sampled_from(_COLUMNS))
        op = draw(st.sampled_from(_OPS))
        value = draw(st.integers(min_value=-1, max_value=hi))
        chain.append(
            Compare(op, ColRef("s", name, "int"), Const(value))
        )
    return chain


@settings(max_examples=40, deadline=None)
@given(chain=predicate_chains())
def test_fused_scan_chain_bit_identical_and_fewer_launches(
    rst_catalog, chain
):
    plain_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
    fused_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
    plain = ops.scan(plain_ctx, "s", "s", chain)
    fused = ops.scan(fused_ctx, "s", "s", chain, fused=True)
    for column in ("s.s_col1", "s.s_col2", "s.s_col3"):
        np.testing.assert_array_equal(
            plain.column(column).data, fused.column(column).data
        )
    assert (
        fused_ctx.device.stats.kernel_launches
        <= plain_ctx.device.stats.kernel_launches
    )


@settings(max_examples=40, deadline=None)
@given(chain=predicate_chains())
def test_fused_filter_multi_bit_identical_and_fewer_launches(
    rst_catalog, chain
):
    plain_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
    fused_ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
    plain = ops.filter_rel_multi(
        plain_ctx, ops.scan(plain_ctx, "s", "s", []), chain
    )
    fused = ops.filter_rel_multi(
        fused_ctx, ops.scan(fused_ctx, "s", "s", []), chain, fused=True
    )
    np.testing.assert_array_equal(
        plain.column("s.s_col2").data, fused.column("s.s_col2").data
    )
    assert (
        fused_ctx.device.stats.kernel_launches
        <= plain_ctx.device.stats.kernel_launches
    )


@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1),
                  min_size=0, max_size=200)
)
def test_fused_compaction_tail_selects_identical_rows(bits):
    mask = np.array(bits, dtype=np.int64)
    fused_dev = Device(DeviceSpec.v100())
    plain_dev = Device(DeviceSpec.v100())
    with kernels.fused(fused_dev, "fused_compact"):
        fused_idx = kernels.compact(fused_dev, mask)
    plain_idx = kernels.compact(plain_dev, mask)
    np.testing.assert_array_equal(fused_idx, plain_idx)
    assert (
        fused_dev.stats.kernel_launches <= plain_dev.stats.kernel_launches
    )


@settings(max_examples=60, deadline=None)
@given(
    masks=st.lists(
        st.lists(st.integers(min_value=0, max_value=1),
                 min_size=50, max_size=50),
        min_size=1, max_size=6,
    )
)
def test_fused_select_equals_sequential_and_chain(masks):
    arrays = [np.array(m, dtype=np.int64) for m in masks]
    fused_dev = Device(DeviceSpec.v100())
    with kernels.fused(fused_dev, "fused_select"):
        chain = arrays[0]
        for mask in arrays[1:]:
            chain = kernels.logical_and(fused_dev, chain, mask)
        got = kernels.compact(fused_dev, chain)
    combined = arrays[0].astype(bool)
    for mask in arrays[1:]:
        combined = combined & mask.astype(bool)
    np.testing.assert_array_equal(got, np.flatnonzero(combined))
    assert fused_dev.stats.kernel_launches == 1


@settings(max_examples=50, deadline=None)
@given(
    versions=st.lists(st.integers(min_value=0, max_value=4),
                      min_size=2, max_size=10),
    fused_ns=st.floats(min_value=1.0, max_value=100.0),
    unfused_ns=st.floats(min_value=1.0, max_value=100.0),
)
def test_tuner_never_serves_a_decision_across_a_version_bump(
    versions, fused_ns, unfused_ns
):
    tuner = FusionTuner()
    for version in versions:
        decision = tuner.decide(
            "fingerprint", version, 2,
            lambda: unfused_ns, lambda: fused_ns,
        )
        # whatever the cache did, the decision handed back must have
        # been measured under the coefficients the caller holds NOW
        assert decision.coefficients_version == version
        assert decision.fused == (fused_ns < unfused_ns)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tuner_cache_hit_only_on_same_fingerprint_and_version(data):
    tuner = FusionTuner()
    probes = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["fp-a", "fp-b", "fp-c"]),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1, max_size=12,
        )
    )
    # the cache keeps ONE decision per fingerprint — the latest; a hit
    # requires the stored version to match exactly (stale = miss)
    latest: dict[str, int] = {}
    expected_hits = 0
    for fingerprint, version in probes:
        tuner.decide(fingerprint, version, 1, lambda: 10.0, lambda: 5.0)
        if latest.get(fingerprint) == version:
            expected_hits += 1
        latest[fingerprint] = version
    assert tuner.stats()["hits"] == expected_hits


# -- the launch-only theorem ------------------------------------------------

C = DeviceSpec.v100().launch_overhead_ns


def assert_launch_only(plain, fused):
    """``plain``/``fused`` are DeviceStats of the same work run unfused
    and fused: same kernels (by tag), same widths, fewer overheads."""
    absorbed = {
        tag: count - fused.launches_by_tag.get(tag, 0)
        for tag, count in plain.launches_by_tag.items()
    }
    assert min(absorbed.values()) >= 0
    assert sum(absorbed.values()) == fused.fused_kernels
    assert fused.kernel_launches == (
        plain.kernel_launches - fused.fused_kernels + fused.fused_launches
    )
    saved = fused.fused_kernels - fused.fused_launches
    assert saved >= 0
    assert fused.total_ns == pytest.approx(plain.total_ns - saved * C, rel=1e-12)
    assert fused.materialize_bytes == plain.materialize_bytes


def _contexts(catalog):
    return (
        ExecutionContext(catalog, Device(DeviceSpec.v100())),
        ExecutionContext(catalog, Device(DeviceSpec.v100())),
    )


@settings(max_examples=40, deadline=None)
@given(chain=predicate_chains())
def test_flat_scan_site_is_launch_only(rst_catalog, chain):
    plain_ctx, fused_ctx = _contexts(rst_catalog)
    ops.scan(plain_ctx, "s", "s", chain)
    ops.scan(fused_ctx, "s", "s", chain, fused=True)
    assert_launch_only(plain_ctx.device.stats, fused_ctx.device.stats)


@st.composite
def predicate_trees(draw):
    """One predicate: an AND/OR tree over 1..5 comparisons."""
    tree = None
    for leaf in draw(predicate_chains()):
        if tree is None:
            tree = leaf
        else:
            tree = BoolOp(draw(st.sampled_from(["and", "or"])), tree, leaf)
    return tree


@settings(max_examples=40, deadline=None)
@given(tree=predicate_trees())
def test_single_predicate_filter_site_is_launch_only(rst_catalog, tree):
    plain_ctx, fused_ctx = _contexts(rst_catalog)
    ops.filter_rel(plain_ctx, ops.scan(plain_ctx, "s", "s", []), tree)
    ops.filter_rel(
        fused_ctx, ops.scan(fused_ctx, "s", "s", []), tree, fused=True
    )
    assert_launch_only(plain_ctx.device.stats, fused_ctx.device.stats)


@st.composite
def inner_predicates(draw):
    """SQL text of 0..3 plain predicates over S for a subquery body."""
    size = draw(st.integers(min_value=0, max_value=3))
    parts = []
    for _ in range(size):
        name, hi = draw(st.sampled_from(_COLUMNS))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        parts.append(f" AND {name} {op} {draw(st.integers(0, hi))}")
    return "".join(parts)


def _run_both(catalog, sql, **options):
    totals = []
    for fusion in ("off", "on"):
        engine = NestGPU(
            catalog, mode="nested",
            options=EngineOptions(fusion=fusion, **options),
        )
        totals.append(engine.execute(sql))
    plain, fused = totals
    assert sorted(plain.rows) == sorted(fused.rows)
    return plain.stats, fused.stats


@settings(max_examples=25, deadline=None)
@given(
    inner=inner_predicates(),
    outer_op=st.sampled_from(["=", "<", ">="]),
    vectorized=st.booleans(),
    indexed=st.booleans(),
)
def test_transient_scan_and_subquery_predicate_sites_are_launch_only(
    rst_catalog, inner, outer_op, vectorized, indexed
):
    """One correlated predicate in the inner scan: the transient scan
    (loop or vectorized, indexed or not), its pushed-down plain chain
    and the 3VL subquery predicate are all launch-only."""
    sql = (
        f"SELECT r_col1, r_col2 FROM r WHERE r_col2 {outer_op} "
        f"(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1{inner})"
    )
    plain, fused = _run_both(
        rst_catalog, sql, use_vectorization=vectorized, use_index=indexed
    )
    assert fused.fused_launches >= 1
    assert_launch_only(plain, fused)


@settings(max_examples=25, deadline=None)
@given(inner=inner_predicates(), indexed=st.booleans())
def test_vectorized_composite_correlation_is_launch_only(
    rst_catalog, inner, indexed
):
    """Two equality correlations: the vectorized B-scan applies the
    second as a segmented filter over the *narrowed* rows, fused or
    not — the same widths, unlike the loop's ``filter_rel_multi``."""
    sql = (
        "SELECT r_col1, r_col2 FROM r WHERE r_col2 >= "
        "(SELECT MIN(s_col2) FROM s WHERE s_col1 = r.r_col1 "
        f"AND s_col3 = r.r_col2{inner})"
    )
    plain, fused = _run_both(
        rst_catalog, sql, use_vectorization=True, use_index=indexed
    )
    assert_launch_only(plain, fused)


def test_fused_multi_predicate_filter_widens_and_can_lose(rst_catalog):
    """The counter-example: fused, ``filter_rel_multi`` evaluates the
    second mask over all 120 rows where the staged pipeline sees only
    the first stage's survivors.  On a one-thread device that extra
    width (2*ceil(n0/Th)*K) outweighs the five launch overheads saved."""
    chain = [
        Compare("=", ColRef("s", "s_col1", "int"), Const(3)),
        Compare("<", ColRef("s", "s_col2", "int"), Const(25)),
    ]

    def filter_stats(spec, fused):
        ctx = ExecutionContext(rst_catalog, Device(spec))
        rel = ops.scan(ctx, "s", "s", [])  # no predicate: launches nothing
        ops.filter_rel_multi(ctx, rel, chain, fused=fused)
        return ctx.device.stats

    narrow = dataclasses.replace(DeviceSpec.v100(), threads=1)
    plain, fused = filter_stats(narrow, False), filter_stats(narrow, True)
    assert plain.kernel_launches - fused.kernel_launches == 5
    assert fused.kernel_time_ns > plain.kernel_time_ns
    assert fused.total_ns > plain.total_ns
    # at the real device's width the same site wins
    wide = DeviceSpec.v100()
    assert (
        filter_stats(wide, True).total_ns < filter_stats(wide, False).total_ns
    )
