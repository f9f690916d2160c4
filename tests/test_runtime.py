"""Tests for drive-program runtime internals and deep nesting."""

import numpy as np
import pytest

from repro.core import NestGPU
from repro.engine import EngineOptions, ExecutionContext
from repro.gpu import Device, DeviceSpec
from repro.tpch import queries

from conftest import rows_set


THREE_LEVEL = """
SELECT r_col1, r_col2 FROM r WHERE r_col2 = (
  SELECT min(s_col2) FROM s WHERE s_col1 = r_col1 AND s_col3 = (
    SELECT max(t_col3) FROM t WHERE t_col1 = s_col1))
"""

THREE_LEVEL_OUTER_REF = """
SELECT r_col1, r_col2 FROM r WHERE r_col2 = (
  SELECT min(s_col2) FROM s WHERE s_col1 = r_col1 AND s_col3 = (
    SELECT max(t_col3) FROM t WHERE t_col1 = r_col1))
"""


def _three_level_oracle(catalog, innermost_key="s"):
    r = catalog.table("r")
    s = catalog.table("s")
    t = catalog.table("t")
    r1, r2 = r.column("r_col1").data, r.column("r_col2").data
    s1, s2, s3 = (s.column(c).data for c in ("s_col1", "s_col2", "s_col3"))
    t1, t3 = t.column("t_col1").data, t.column("t_col3").data
    out = []
    for a, b in zip(r1, r2):
        srows = s1 == a
        if not srows.any():
            continue
        values = []
        for i in np.nonzero(srows)[0]:
            key = s1[i] if innermost_key == "s" else a
            tvals = t3[t1 == key]
            if len(tvals) and s3[i] == tvals.max():
                values.append(s2[i])
        if values and b == min(values):
            out.append((int(a), int(b)))
    return sorted(out)


class TestThreeLevelNesting:
    def test_matches_oracle(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(THREE_LEVEL, mode="nested")
        assert sorted(result.rows) == _three_level_oracle(rst_catalog)

    def test_innermost_referencing_outermost(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(THREE_LEVEL_OUTER_REF, mode="nested")
        assert sorted(result.rows) == _three_level_oracle(
            rst_catalog, innermost_key="r"
        )

    def test_loop_path_equals_default(self, rst_catalog):
        loop = NestGPU(rst_catalog, options=EngineOptions(use_vectorization=False))
        default = NestGPU(rst_catalog)
        assert rows_set(loop.execute(THREE_LEVEL, mode="nested")) == rows_set(
            default.execute(THREE_LEVEL, mode="nested")
        )

    def test_nested_loops_in_source(self, rst_catalog):
        source = NestGPU(rst_catalog).drive_source(THREE_LEVEL, mode="nested")
        assert "env1.update(env0)" in source


class TestHoistedHashReuse:
    def test_hash_built_once_across_iterations(self, tpch_small):
        """Q2's inner supplier/nation/region hash table is built once;
        without extraction it is rebuilt per iteration."""
        options = EngineOptions(use_vectorization=False, use_cache=False)
        db = NestGPU(tpch_small, options=options)
        result = db.execute(queries.TPCH_Q2, mode="nested")
        builds = result.stats.launches_by_tag.get("hash_build", 0)
        no_hoist = NestGPU(tpch_small, options=EngineOptions(
            use_vectorization=False, use_cache=False,
            use_invariant_extraction=False,
        )).execute(queries.TPCH_Q2, mode="nested")
        rebuilds = no_hoist.stats.launches_by_tag.get("hash_build", 0)
        assert builds < rebuilds

    def test_base_relation_cached(self, rst_catalog):
        """The transient scan's non-correlated base is evaluated once."""
        from repro.core.codegen import SubquerySpec
        from repro.core.runtime import SubqueryProgram
        from repro.plan import Binder, PlanBuilder, mark_invariants
        from repro.sql import parse

        block = Binder(rst_catalog).bind(parse(queries.PAPER_Q3))
        builder = PlanBuilder(rst_catalog)
        builder.build(block)
        plan = builder.build(block.subqueries[0].block)
        ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
        sp = SubqueryProgram(ctx, SubquerySpec(
            block.subqueries[0], plan, mark_invariants(plan)), 1024)
        from repro.plan.nodes import Scan

        scan = next(
            n for n in plan.walk()
            if isinstance(n, Scan) and sp.info.is_transient(n)
        )
        first = sp.base_relation(scan)
        snapshot = ctx.device.stats.kernel_launches
        second = sp.base_relation(scan)
        assert first is second
        assert ctx.device.stats.kernel_launches == snapshot


class TestPoolDiscipline:
    def test_intermediate_pool_bounded_by_iterations(self, rst_catalog):
        """With pool restore per iteration, peak memory does not scale
        with the iteration count."""
        from conftest import make_rst_catalog

        small = make_rst_catalog(seed=2, n_r=20, n_s=400)
        large = make_rst_catalog(seed=2, n_r=200, n_s=400)
        options = EngineOptions(use_vectorization=False, use_cache=False)
        peak_small = NestGPU(small, options=options).execute(
            queries.PAPER_Q1, mode="nested"
        ).stats.peak_device_bytes
        peak_large = NestGPU(large, options=options).execute(
            queries.PAPER_Q1, mode="nested"
        ).stats.peak_device_bytes
        # 10x the iterations must cost far less than 10x the memory
        assert peak_large < peak_small * 3

    def test_no_pools_means_mallocs_per_iteration(self, rst_catalog):
        options = EngineOptions(
            use_vectorization=False, use_cache=False, use_memory_pools=False
        )
        result = NestGPU(rst_catalog, options=options).execute(
            queries.PAPER_Q1, mode="nested"
        )
        iterations = rst_catalog.table("r").num_rows
        assert result.stats.malloc_calls >= iterations


class TestCorrelatedValues:
    def test_transfer_charged_once_per_column(self, tpch_small):
        db = NestGPU(tpch_small)
        result = db.execute(queries.TPCH_Q17, mode="nested")
        # d2h contains the correlated column pull plus the final fetch
        assert result.stats.d2h_bytes > 0

    def test_missing_qual_raises(self, rst_catalog):
        from repro.core.codegen import SubquerySpec
        from repro.core.runtime import Runtime, SubqueryProgram
        from repro.engine import operators as ops
        from repro.errors import ExecutionError
        from repro.plan import Binder, PlanBuilder, mark_invariants
        from repro.sql import parse

        block = Binder(rst_catalog).bind(parse(queries.PAPER_Q1))
        builder = PlanBuilder(rst_catalog)
        builder.build(block)
        plan = builder.build(block.subqueries[0].block)
        ctx = ExecutionContext(rst_catalog, Device(DeviceSpec.v100()))
        sp = SubqueryProgram(ctx, SubquerySpec(
            block.subqueries[0], plan, mark_invariants(plan)), 1024)
        runtime = Runtime(ctx, [], [sp])
        rel = ops.scan(ctx, "s", "s", [])  # lacks r.r_col1
        with pytest.raises(ExecutionError):
            runtime.correlated_values(sp, rel)
