"""Tests for the benchmark harness (sweeps, reporting, figure glue)."""

import pytest

from repro.bench import (
    Measurement,
    Sweep,
    figure11_q5,
    format_sweep,
    run_sweep,
    speedup,
)
from repro.baselines import NestGPUSystem, PostgresUnnested
from repro.tpch import queries


def _toy_sweep() -> Sweep:
    sweep = Sweep("toy")
    sweep.add(Measurement("a", 1.0, 10.0, rows=5))
    sweep.add(Measurement("a", 2.0, 20.0, rows=5))
    sweep.add(Measurement("b", 1.0, 1.0, rows=5))
    sweep.add(Measurement("b", 2.0, None, note="out of memory"))
    return sweep


class TestSweep:
    def test_series(self):
        sweep = _toy_sweep()
        assert [m.time_ms for m in sweep.series("a")] == [10.0, 20.0]

    def test_cell(self):
        assert _toy_sweep().cell("b", 1.0).time_ms == 1.0

    def test_cell_missing(self):
        with pytest.raises(KeyError):
            _toy_sweep().cell("c", 1.0)

    def test_systems_and_scale_factors_ordered(self):
        sweep = _toy_sweep()
        assert sweep.systems() == ["a", "b"]
        assert sweep.scale_factors() == [1.0, 2.0]

    def test_ran_flag(self):
        sweep = _toy_sweep()
        assert sweep.cell("a", 2.0).ran
        assert not sweep.cell("b", 2.0).ran


class TestReport:
    def test_format_contains_all_cells(self):
        text = format_sweep(_toy_sweep())
        assert "toy" in text
        assert "10.00ms" in text
        assert "out of memo" in text  # note shown for failures

    def test_speedup(self):
        assert speedup(_toy_sweep(), "b", "a", 1.0) == 10.0

    def test_speedup_missing_raises(self):
        with pytest.raises(ValueError):
            speedup(_toy_sweep(), "b", "a", 2.0)


class TestRunSweep:
    def test_runs_systems_and_records_failures(self):
        sweep = run_sweep(
            "mini",
            queries.PAPER_Q5,
            [("NestGPU", NestGPUSystem), ("pgSQL(unnested)", PostgresUnnested)],
            scale_factors=(0.25,),
            tables=("part", "partsupp", "supplier", "nation", "region"),
        )
        nest = sweep.cell("NestGPU", 0.25)
        assert nest.ran and nest.extra["kernel_launches"] > 0
        refused = sweep.cell("pgSQL(unnested)", 0.25)
        assert not refused.ran and refused.note == "cannot unnest"

    def test_figure_entry_point_smoke(self):
        sweep = figure11_q5(scale_factors=(0.25,))
        assert sweep.cell("NestGPU", 0.25).ran
