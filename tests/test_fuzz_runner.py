"""Campaign orchestration: artifacts, replay, and the CLI entry point."""

from __future__ import annotations

import io
import json

import pytest

from repro.core import NestGPU
from repro.fuzz.differential import DifferentialRunner, config_matrix
from repro.fuzz.runner import fuzz_main, replay, run_campaign
from repro.tpch import generate_tpch


@pytest.fixture(scope="module")
def fuzz_catalog():
    return generate_tpch(0.05)


class _BrokenEngine:
    def __init__(self, catalog, options):
        self._real = NestGPU(catalog, options=options)

    def execute(self, sql, mode="auto"):
        result = self._real.execute(sql, mode=mode)
        if result.rows:
            result.rows = result.rows[:-1]
        return result


def test_clean_campaign_has_no_failures(fuzz_catalog):
    campaign = run_campaign(5, 5, catalog=fuzz_catalog)
    assert len(campaign.cases) == 5
    assert not campaign.failures
    assert "5 queries" in campaign.summary()


def test_failing_campaign_writes_replayable_artifacts(tmp_path, fuzz_catalog):
    broken = DifferentialRunner(
        fuzz_catalog, config_matrix("minimal"), engine_factory=_BrokenEngine
    )
    campaign = run_campaign(
        5, 6, catalog=fuzz_catalog, runner=broken,
        do_shrink=True, out_dir=tmp_path,
    )
    assert campaign.failures, "the broken engine must produce failures"
    case = campaign.failures[0]
    assert case.artifact_dir is not None
    assert (case.artifact_dir / "query.sql").read_text().strip() == case.query.sql
    meta = json.loads((case.artifact_dir / "meta.json").read_text())
    assert meta["seed"] == 5 and meta["index"] == case.index
    assert meta["failing"], "meta records which configs failed"
    if case.minimal_sql:  # shrinker found a smaller reproducer
        assert len(case.minimal_sql) <= len(case.query.sql)
        assert (case.artifact_dir / "minimal.sql").exists()
    # replaying through the REAL engines passes: the bug was injected
    report = replay(case.artifact_dir)
    assert report.ok


def test_fuzz_main_smoke(capsys):
    out = io.StringIO()
    code = fuzz_main(
        ["--seed", "7", "--iterations", "3", "--config-matrix", "minimal"],
        stdout=out,
    )
    assert code == 0
    assert "0 failing" in out.getvalue()


def test_session_reuse_matches_fresh_engines(fuzz_catalog):
    """The default campaign soaks EngineSession reuse; --fresh-engine
    restores per-query engines. Verdicts must agree exactly."""
    reused = run_campaign(11, 6, catalog=fuzz_catalog, matrix="minimal")
    fresh = run_campaign(
        11, 6, catalog=fuzz_catalog, matrix="minimal", fresh_engine=True
    )

    def verdicts(campaign):
        return [
            c.report.ok if c.report is not None else c.generation_error
            for c in campaign.cases
        ]

    assert verdicts(reused) == verdicts(fresh)
    assert not reused.failures


def test_runner_keeps_one_session_per_config(fuzz_catalog):
    runner = DifferentialRunner(
        fuzz_catalog, config_matrix("minimal"), reuse_sessions=True
    )
    runner.run("SELECT count(*) AS c FROM region")
    sessions = dict(runner._sessions)
    assert set(sessions) == {
        "all-on", "fused", "sharded-2", "sharded-4", "all-off",
    }
    assert sessions["sharded-4"].shards == 4
    assert sessions["sharded-4"].sharded.interconnect.name == "nvlink"
    runner.run("SELECT count(*) AS c FROM nation")
    assert dict(runner._sessions) == sessions  # same objects, reused
    assert all(s.queries_run >= 2 for s in sessions.values())
    runner.close()
    assert not runner._sessions


def test_injected_factory_disables_session_reuse(fuzz_catalog):
    runner = DifferentialRunner(
        fuzz_catalog, config_matrix("minimal"),
        engine_factory=_BrokenEngine, reuse_sessions=True,
    )
    report = runner.run("SELECT count(*) AS c FROM region")
    assert not runner._sessions
    assert not report.ok  # the broken engine is actually in use
