"""Tests of the drive-program generator's output structure."""

import pytest

from repro.core import NestGPU
from repro.core.codegen import generate_drive_program
from repro.plan import Binder, PlanBuilder
from repro.sql import parse
from repro.tpch import queries


def program_for(catalog, sql, **kwargs):
    block = Binder(catalog).bind(parse(sql))
    builder = PlanBuilder(catalog, **kwargs)
    plan = builder.build(block)
    return generate_drive_program(builder, plan)


class TestFlatPrograms:
    def test_compiles(self, rst_catalog):
        program = program_for(rst_catalog, "SELECT r_col1 FROM r")
        assert program.code is not None
        assert program.source.startswith("def drive(rt):")

    def test_compiles_on_first_use_and_keeps_the_callable(self, rst_catalog):
        program = program_for(rst_catalog, "SELECT r_col1 FROM r")
        assert "code" not in vars(program) and "drive" not in vars(program)
        drive = program.drive
        assert callable(drive) and drive.__name__ == "drive"
        assert program.drive is drive

    def test_syntax_error_surfaces_from_code_without_running(self):
        from repro.core.codegen import DriveProgram

        with pytest.raises(SyntaxError):
            DriveProgram("def drive(rt:\n", [], []).code

    def test_only_the_program_that_runs_is_compiled_and_only_once(self, tpch_small):
        engine = NestGPU(tpch_small)
        prepared = engine.prepare(queries.TPCH_Q17)
        assert prepared.fallback.program is None  # the loser is not generated
        assert "code" not in vars(prepared.program)
        first = engine.run_prepared(prepared)
        drive = vars(prepared.program)["drive"]
        second = engine.run_prepared(prepared)
        assert vars(prepared.program)["drive"] is drive
        assert first.rows == second.rows
        assert prepared.fallback.program is None

    def test_statement_per_operator(self, tpch_small):
        program = program_for(
            tpch_small,
            "SELECT p_partkey FROM part, partsupp "
            "WHERE p_partkey = ps_partkey AND p_size = 15",
        )
        source = program.source
        assert source.count("rt.scan(") == 2
        assert source.count("rt.join(") == 1
        assert source.count("rt.project(") == 1
        assert "return rt.fetch(" in source

    def test_node_registry_covers_statements(self, tpch_small):
        program = program_for(tpch_small, queries.TPCH_Q2)
        assert len(program.nodes) > 5
        # every registered id appearing in the source is in range
        import re

        for match in re.finditer(r"rt\.\w+\((\d+)[,)]", program.source):
            assert int(match.group(1)) < len(program.nodes)


class TestSubqueryLoops:
    def test_loop_structure(self, tpch_small):
        source = program_for(tpch_small, queries.TPCH_Q2).source
        # paper Figure 4's sequence
        order = [
            "rt.correlated_values",
            "rt.new_result",
            "rt.eval_invariants",
            "rt.mark_pools",
            "if sp0.vectorized:",
            "rt.run_vector_batch",
            "for i0 in range",
            "rt.cache_get",
            "rt.t_scan",
            "rt.t_aggregate",
            "rt.scalar_from",
            "rt.restore_pools",
            "rt.apply_subquery_predicate",
        ]
        position = -1
        for token in order:
            found = source.find(token, position + 1)
            assert found > position, f"{token} out of order"
            position = found

    def test_invariant_reference_inside_loop(self, tpch_small):
        source = program_for(tpch_small, queries.TPCH_Q2).source
        assert "rt.invariant(sp0," in source

    def test_pool_restore_in_both_branches(self, tpch_small):
        source = program_for(tpch_small, queries.TPCH_Q2).source
        assert source.count("rt.restore_pools(mark0)") == 2

    def test_three_level_nested_loops(self, rst_catalog):
        source = program_for(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE r_col2 = (
              SELECT min(s_col2) FROM s WHERE s_col1 = r_col1 AND s_col3 = (
                SELECT max(t_col3) FROM t WHERE t_col1 = s_col1))
            """,
        ).source
        assert "for i0 in range" in source
        assert "for i1 in range" in source
        # the inner loop body sits deeper than the outer one
        outer_indent = _indent_of(source, "for i0 in range")
        inner_indent = _indent_of(source, "for i1 in range")
        assert inner_indent > outer_indent
        # the enclosing environment propagates down (Figure 6)
        assert "env1.update(env0)" in source

    def test_exists_kind_statements(self, rst_catalog):
        source = program_for(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE EXISTS (
              SELECT * FROM s WHERE s_col1 = r_col1 AND s_col2 > 9)
            """,
        ).source
        # nested-mode plan keeps SUBQ here (semi-join rewrite happens in
        # the executor), so the generated loop stores exists flags
        assert "rt.store_exists" in source or "rt.semi_join" in source

    def test_in_kind_statements(self, rst_catalog):
        source = program_for(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE r_col2 IN (
              SELECT s_col2 FROM s WHERE s_col1 = r_col1)
            """,
        ).source
        assert "rt.store_values" in source

    def test_uncorrelated_evaluated_once(self, rst_catalog):
        source = program_for(
            rst_catalog,
            "SELECT r_col1 FROM r WHERE r_col2 = (SELECT min(s_col2) FROM s)",
        ).source
        assert "rt.uncorrelated_vector" in source
        assert "for i0" not in source

    def test_quantified_generates_multiple_vectors(self, rst_catalog):
        source = program_for(
            rst_catalog,
            """
            SELECT r_col1 FROM r WHERE r_col2 > ALL (
              SELECT s_col2 FROM s WHERE s_col1 = r_col1)
            """,
        ).source
        assert "sp0 = rt.subquery(0)" in source
        assert "sp1 = rt.subquery(1)" in source
        # both vectors feed one predicate application
        assert "{0: " in source and "1: " in source


class TestSharedSubtrees:
    def test_magic_set_subtree_emitted_once(self, tpch_small):
        program = program_for(
            tpch_small, queries.TPCH_Q2, unnest=True, magic_sets=True
        )
        # the outer flat part feeds both the final join and the
        # magic-set semi-join; memoized emission executes it once
        source = program.source
        scans = source.count("rt.scan(")
        plain = program_for(tpch_small, queries.TPCH_Q2, unnest=True)
        assert scans <= plain.source.count("rt.scan(") + 1


def _indent_of(source: str, needle: str) -> int:
    for line in source.splitlines():
        if needle in line:
            return len(line) - len(line.lstrip())
    raise AssertionError(f"{needle!r} not found")


class TestDriveCodeMemo:
    """Drive code is compiled once per distinct source, process-wide."""

    def test_two_fresh_engines_share_one_code_object(self, tpch_small):
        first = NestGPU(tpch_small).prepare(queries.TPCH_Q17).program
        second = NestGPU(tpch_small).prepare(queries.TPCH_Q17).program
        assert first is not second and first.source == second.source
        assert first.code is second.code
        assert first.drive is not second.drive  # exec'd per program

    def test_a_paper_pass_compiles_three_distinct_sources(self, drive_compiles):
        from repro.core.codegen import _compile
        from repro.engine import EngineOptions
        from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

        catalog = generate_tpch(10)
        _compile.cache_clear()
        for _ in range(2):
            for sql in ALL_EVALUATION_QUERIES.values():
                NestGPU(
                    catalog, mode="auto", options=EngineOptions(fusion="auto")
                ).execute(sql)
        assert len(drive_compiles) == len(set(drive_compiles)) == 3

    def test_the_memo_stays_within_its_bound(self):
        from repro.core.codegen import DriveProgram, _compile

        bound = _compile.cache_info().maxsize
        for k in range(bound + 1):
            DriveProgram(f"def drive(rt):\n    return {k}\n", [], []).code
        assert _compile.cache_info().currsize == bound

    def test_a_syntax_error_raises_every_time_and_is_never_stored(
        self, drive_compiles
    ):
        from repro.core.codegen import DriveProgram, _compile

        source = "def drive(rt:\n    return 0\n"
        hits = _compile.cache_info().hits
        for _ in range(2):
            with pytest.raises(SyntaxError):
                DriveProgram(source, [], []).code
        # compiled (and failed) on each access: nothing was stored
        assert drive_compiles == [source, source]
        assert _compile.cache_info().hits == hits

    def test_two_threads_compiling_a_new_source_get_equal_code(self):
        import threading

        from repro.core.codegen import DriveProgram

        source = "def drive(rt):\n    return 'two threads'\n"
        barrier, codes = threading.Barrier(2), []

        def compile_it():
            barrier.wait()
            codes.append(DriveProgram(source, [], []).code)

        threads = [threading.Thread(target=compile_it) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(codes) == 2 and codes[0] == codes[1]
        namespace: dict = {}
        exec(codes[1], namespace)
        assert namespace["drive"](None) == "two threads"
