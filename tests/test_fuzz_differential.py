"""Differential harness: pinned-seed smoke plus an injected-bug drill.

The smoke test runs 25 fuzzed queries through the full optimization
config matrix and requires zero mismatches — the rowstore oracle, the
nested method, and the unnested rewrite must agree everywhere (modulo
documented ``UnnestingError`` skips).

The drill wires a deliberately broken engine into the runner and
proves the harness *would* catch a real bug: the mismatch is detected,
reported with row-level detail, and the shrinker reduces the failing
query to a strictly smaller reproducer that still fails.
"""

from __future__ import annotations

import math

import pytest

from repro.core import NestGPU, ShardedEngine
from repro.fuzz.differential import (
    DifferentialRunner,
    canon_rows,
    config_matrix,
    rows_match,
)
from repro.fuzz.generator import generate_query
from repro.fuzz.shrinker import shrink
from repro.gpu.spec import InterconnectSpec
from repro.sql import parse, unparse
from repro.tpch import generate_tpch

SMOKE_SEED = 7
SMOKE_QUERIES = 25


@pytest.fixture(scope="module")
def fuzz_catalog():
    return generate_tpch(0.05)


@pytest.fixture(scope="module")
def runner(fuzz_catalog):
    return DifferentialRunner(fuzz_catalog, config_matrix("full"))


def test_pinned_seed_smoke_has_zero_mismatches(fuzz_catalog, runner):
    for index in range(SMOKE_QUERIES):
        query = generate_query(fuzz_catalog, SMOKE_SEED, index)
        report = runner.run(query.sql)
        assert report.ok, (
            f"divergence at index {index}: {report.summary()}\n"
            f"{query.sql}\n"
            + "\n".join(
                f"{o.engine}/{o.config}: {o.detail}"
                for o in report.mismatches + report.errors
            )
        )


def test_unnestable_skips_are_recorded_not_failed(fuzz_catalog):
    # non-equality correlation: the paper's Query-5 family, never unnestable
    sql = (
        "SELECT p_partkey FROM part WHERE p_retailprice < "
        "(SELECT max(ps_supplycost) FROM partsupp WHERE ps_supplycost > p_retailprice)"
    )
    runner = DifferentialRunner(fuzz_catalog, config_matrix("minimal"))
    report = runner.run(sql)
    assert report.ok
    assert report.skipped  # unnested mode skipped, one per config
    assert all(o.engine == "unnested" for o in report.skipped)


# -- injected-bug drill -----------------------------------------------------


class _BrokenEngine:
    """NestGPU with a deliberate result-corruption bug for the drill."""

    def __init__(self, catalog, options):
        self._real = NestGPU(catalog, options=options)

    def execute(self, sql, mode="auto"):
        result = self._real.execute(sql, mode=mode)
        if result.rows:
            result.rows = result.rows[:-1]  # silently drop the last row
        return result


BUGGY_SQL = (
    "SELECT c_custkey FROM customer WHERE ((c_custkey <= 8) AND "
    "EXISTS (SELECT * FROM orders WHERE (o_custkey = c_custkey)))"
)


@pytest.fixture(scope="module")
def broken_runner(fuzz_catalog):
    return DifferentialRunner(
        fuzz_catalog, config_matrix("minimal"), engine_factory=_BrokenEngine
    )


def test_runner_detects_injected_mismatch(broken_runner):
    report = broken_runner.run(BUGGY_SQL)
    assert not report.ok
    assert report.mismatches
    first = report.mismatches[0]
    assert "oracle=" in first.detail and "engine=" in first.detail


def test_shrinker_reduces_injected_failure(broken_runner):
    stmt = parse(BUGGY_SQL)

    def still_fails(candidate):
        return not broken_runner.run(unparse(candidate)).ok

    minimal = shrink(stmt, still_fails)
    assert len(unparse(minimal)) < len(BUGGY_SQL)
    assert still_fails(minimal)  # the reproducer really still fails


@pytest.mark.parametrize("sql", [
    "SELECT l_quantity FROM lineitem WHERE l_quantity > 1000",
    "SELECT d.x FROM (SELECT l_quantity AS x FROM lineitem "
    "WHERE l_quantity > 1000) AS d",
], ids=["top-level", "derived-table"])
def test_shrinker_moves_literals_toward_zero(sql):
    # a shrink is kept only while the text gets shorter: 1000 -> 500
    # is, 500 -> 250 is not
    minimal = shrink(parse(sql), lambda s: "l_quantity >" in unparse(s))
    assert "l_quantity > 500" in unparse(minimal)


class _DroppedPartialEngine(ShardedEngine):
    """A 2-shard engine whose gather loses the last shard's partial."""

    def __init__(self, catalog, options):
        super().__init__(
            catalog, options=options, shards=2,
            interconnect=InterconnectSpec.nvlink(),
        )

    def _concat(self, ctx, partials):
        return super()._concat(ctx, partials[:-1])


def test_sharded_leg_catches_and_shrinks_a_dropped_partial(fuzz_catalog):
    legs = [leg for leg in config_matrix("minimal") if leg[0] == "sharded-2"]
    broken = DifferentialRunner(
        fuzz_catalog, legs, engine_factory=_DroppedPartialEngine
    )
    report = broken.run(BUGGY_SQL)
    assert report.mismatches
    assert all(o.config == "sharded-2" for o in report.mismatches)

    def still_fails(candidate):
        return not broken.run(unparse(candidate)).ok

    minimal = shrink(parse(BUGGY_SQL), still_fails)
    assert len(unparse(minimal)) < len(BUGGY_SQL)
    assert still_fails(minimal)
    healthy = DifferentialRunner(fuzz_catalog, legs)
    assert healthy.run(unparse(minimal)).ok


def test_healthy_engine_passes_where_broken_fails(fuzz_catalog, broken_runner):
    healthy = DifferentialRunner(fuzz_catalog, config_matrix("minimal"))
    assert healthy.run(BUGGY_SQL).ok
    assert not broken_runner.run(BUGGY_SQL).ok


# -- canonicalisation units -------------------------------------------------


def test_canon_rows_is_order_insensitive():
    assert canon_rows([(2, 1.0), (1, 2.0)]) == canon_rows([(1, 2.0), (2, 1.0)])


def test_canon_rows_maps_nan_to_null_sentinel():
    rows = canon_rows([(math.nan,)])
    assert rows == [("NULL",)]


def test_rows_match_tolerates_float_noise():
    a = [(1.0, 2.0)]
    b = [(1.0 + 1e-9, 2.0)]
    assert rows_match(canon_rows(a), canon_rows(b))
    assert not rows_match(canon_rows([(1.0,)]), canon_rows([(1.5,)]))


def test_config_matrix_shapes():
    full = config_matrix("full")
    assert len(full) == 10
    labels = [name for name, _ in full]
    assert labels[0] == "all-on" and labels[-1] == "all-off"
    assert labels[1] == "fused"
    assert labels[-3:-1] == ["sharded-2", "sharded-4"]
    assert [name for name, _ in config_matrix("minimal")] == [
        "all-on", "fused", "sharded-2", "sharded-4", "all-off",
    ]
    assert len(config_matrix("single")) == 1
    with pytest.raises(ValueError):
        config_matrix("bogus")


def test_config_matrix_fused_leg_forces_fusion():
    for name in ("full", "minimal"):
        options = dict(config_matrix(name))["fused"]
        assert options.fusion == "on"
        # every other leg keeps fusion at its bit-identical default
        for label, other in config_matrix(name):
            if label != "fused":
                assert other.fusion == "off"
