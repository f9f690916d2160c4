"""Tests pinned to the paper's running examples (Queries 1-3, Fig 1-6)."""

import numpy as np
import pytest

from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.gpu import DeviceSpec
from repro.tpch import queries

from conftest import rows_set


class TestQuery1And2:
    """Query 1 (nested) and Query 2 (its hand-unnested form) are the
    paper's equivalence example."""

    def test_equivalence(self, rst_catalog):
        db = NestGPU(rst_catalog)
        q1_nested = db.execute(queries.PAPER_Q1, mode="nested")
        q1_unnested = db.execute(queries.PAPER_Q1, mode="unnested")
        q2 = db.execute(queries.PAPER_Q2_UNNESTED)
        assert rows_set(q1_nested) == rows_set(q1_unnested) == rows_set(q2)
        assert q1_nested.num_rows > 0

    def test_q1_oracle(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(queries.PAPER_Q1, mode="nested")
        r = rst_catalog.table("r")
        s = rst_catalog.table("s")
        s1, s2 = s.column("s_col1").data, s.column("s_col2").data
        expected = []
        for a, b in zip(r.column("r_col1").data, r.column("r_col2").data):
            values = s2[s1 == a]
            if len(values) and b == values.min():
                expected.append((int(a), int(b)))
        assert sorted(result.rows) == sorted(expected)

    def test_q2_derived_table_in_from(self, rst_catalog):
        """Query 2 exercises derived tables in FROM end to end."""
        from repro.plan.nodes import DerivedScan

        prepared = NestGPU(rst_catalog).prepare(queries.PAPER_Q2_UNNESTED)
        assert [
            n for n in prepared.plan.walk() if isinstance(n, DerivedScan)
        ]


class TestQuery3:
    """Query 3 is the paper's invariant-extraction example: the join of
    T and S can build its hash table on the invariant side once."""

    def test_results_match_oracle(self, rst_catalog):
        db = NestGPU(rst_catalog)
        result = db.execute(queries.PAPER_Q3, mode="nested")
        r = rst_catalog.table("r")
        s = rst_catalog.table("s")
        t = rst_catalog.table("t")
        s1, s3 = s.column("s_col1").data, s.column("s_col3").data
        t1, t2, t3 = (t.column(c).data for c in ("t_col1", "t_col2", "t_col3"))
        s_keys = set(s3[s1 > 0].tolist())
        expected = []
        for a, b in zip(r.column("r_col1").data, r.column("r_col2").data):
            mask = (t1 == a) & np.isin(t3, list(s_keys))
            values = t2[mask]
            if len(values) and b == values.min():
                expected.append((int(a), int(b)))
        assert sorted(result.rows) == sorted(expected)

    def test_join_is_hoisted(self, rst_catalog):
        from repro.plan import Binder, PlanBuilder, mark_invariants
        from repro.plan.nodes import Join
        from repro.sql import parse

        block = Binder(rst_catalog).bind(parse(queries.PAPER_Q3))
        builder = PlanBuilder(rst_catalog)
        builder.build(block)
        plan = builder.build(block.subqueries[0].block)
        info = mark_invariants(plan)
        joins = [n for n in plan.walk() if isinstance(n, Join)]
        assert joins and any(id(j) in info.hoisted_joins for j in joins)

    def test_hash_built_on_invariant_side_once(self, rst_catalog):
        options = EngineOptions(use_vectorization=False, use_cache=False)
        db = NestGPU(rst_catalog, options=options)
        result = db.execute(queries.PAPER_Q3, mode="nested")
        iterations = rst_catalog.table("r").num_rows
        builds = result.stats.launches_by_tag.get("hash_build", 0)
        # far fewer hash builds than iterations: the table is reused
        assert builds < iterations / 2


class TestDeviceSpecs:
    def test_v100_preset(self):
        spec = DeviceSpec.v100()
        assert spec.memory_bytes == 32 * 2**30
        assert spec.threads == 163_840

    def test_gtx1080_preset(self):
        spec = DeviceSpec.gtx1080()
        assert spec.memory_bytes == 8 * 2**30

    def test_with_memory(self):
        spec = DeviceSpec.v100().with_memory(123)
        assert spec.memory_bytes == 123
        assert spec.threads == DeviceSpec.v100().threads


class TestMultiKeySort:
    def test_q2_full_order(self, tpch_small):
        """ORDER BY s_acctbal DESC, n_name, s_name, p_partkey —
        verified against Python's tuple sort."""
        db = NestGPU(tpch_small)
        result = db.execute(queries.TPCH_Q2, mode="nested")
        keys = [
            (-row[0], row[2], row[1], row[3]) for row in result.rows
        ]
        assert keys == sorted(keys)
