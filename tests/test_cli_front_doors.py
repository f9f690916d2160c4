"""The three command-line front doors, driven in-process.

``repro.cli``, ``repro serve`` and ``repro net serve`` declare their
engine-shape flags through one shared option group and build their
session through one factory; ``serve`` runs both of its drive modes
on the one AsyncEngine.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.net.main import build_net_parser, net_main
from repro.serve.main import build_serve_parser, serve_main

ENGINE_SHAPE = {
    "--scale": 1.0,
    "--mode": "auto",
    "--device": "v100",
    "--shards": 1,
    "--interconnect": "pcie",
    "--fusion": "off",
}
CONNECTION = {"--host": "127.0.0.1", "--port": None, "--token": "local"}

# every option string and default, as declared before the three parsers
# shared one engine option group
EXPECTED = {
    "cli": {
        **ENGINE_SHAPE,
        "-q --query": None,
        "--paper-query": None,
        "--explain": False,
        "--analyze": False,
        "--source": False,
        "--trace": None,
        "--metrics": None,
        "--no-adaptive": False,
        "--no-exact-selectivity": False,
    },
    "serve": {
        **ENGINE_SHAPE,
        "--streams": 2,
        "--concurrency": 0,
        "--timeout": 300.0,
        "--device-trace": None,
        "--workload": None,
        "--paper-mix": False,
        "--report": None,
        "--trace": None,
        "--metrics": None,
        "--verify-solo": False,
        "--calibrate": False,
        "--stale-model": None,
        "--calibration-report": None,
        "-v --verbose": False,
    },
    "net serve": {
        **ENGINE_SHAPE,
        "--concurrency": 2,
        "--policy": "priority",
        "--queue-capacity": 64,
        "--host": "127.0.0.1",
        "--port": 0,
        "--tenants": None,
        "--demo-tenants": False,
        "--slo-ms": 1000.0,
        "--slo-target": 0.99,
        "--flight-recorder": None,
        "--flight-recorder-capacity": 1024,
    },
    "net run": {
        **CONNECTION,
        "-q --query": None,
        "--paper-mix": False,
        "--repeat": 1,
        "--deadline": None,
        "--fetch-size": None,
        "--scale": 1.0,
        "--mode": "auto",
        "--verify-solo": False,
        "--trace-dir": None,
        "-v --verbose": False,
    },
    "net stats": {**CONNECTION, "--out": None, "--prometheus": False},
    "net flight-recorder": {**CONNECTION, "--limit": None, "--out": None},
}


def option_table(parser) -> dict:
    return {
        " ".join(action.option_strings): action.default
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


def parser_named(name):
    if name == "cli":
        return build_parser()
    if name == "serve":
        return build_serve_parser()
    subparsers = next(
        action for action in build_net_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices[name.removeprefix("net ")]


def exit_code(entry, argv) -> int:
    try:
        return entry(argv)
    except SystemExit as exc:
        return exc.code


class TestOptionTables:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_flags_and_defaults_are_unchanged(self, name):
        assert option_table(parser_named(name)) == EXPECTED[name]


class TestServeMain:
    @pytest.mark.parametrize("drive", [
        ["--streams", "4"],
        ["--concurrency", "2"],
    ])
    def test_paper_mix_on_both_drive_modes(self, tmp_path, drive):
        report_path = tmp_path / "report.json"
        metrics_path = tmp_path / "metrics.json"
        status = serve_main([
            "--paper-mix", "--scale", "0.05", *drive,
            "--report", str(report_path), "--metrics", str(metrics_path),
        ])
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["completed"] == 10 and report["rejected"] == 0
        assert report["streams"] == int(drive[1])
        assert report["makespan_ms"] < report["serial_ms"]
        assert all(q["wall_run_ms"] > 0 for q in report["queries"])
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["serve.queries.admitted"] == 10
        assert metrics["gauges"]["serve.workers"] == int(drive[1])
        assert metrics["gauges"]["serve.makespan_ms"] == report["makespan_ms"]
        assert metrics["gauges"]["serve.queries_per_second"] == (
            report["queries_per_second"]
        )

    @pytest.mark.parametrize("drive", [
        ["--streams", "2"],
        ["--concurrency", "2"],
    ])
    def test_closed_batch_larger_than_the_default_queue(self, tmp_path, drive):
        """Regression: 80 statements tripped the 64-deep submission
        queue's backpressure under ``--concurrency``."""
        workload = tmp_path / "eighty.sql"
        workload.write_text(
            ";\n".join(["SELECT count(*) AS c FROM region"] * 80) + ";\n"
        )
        report_path = tmp_path / "report.json"
        status = serve_main([
            "--workload", str(workload), "--scale", "0.05", *drive,
            "--report", str(report_path),
        ])
        assert status == 0
        assert json.loads(report_path.read_text())["completed"] == 80

    def test_sharded_modes_agree_on_the_modelled_clock(self, tmp_path):
        """``--streams 1`` and ``--concurrency 1`` on a device group
        report the same makespan and bus floor (3.7x apart before)."""
        reports = []
        for drive in ("--streams", "--concurrency"):
            path = tmp_path / f"{drive.strip('-')}.json"
            assert serve_main([
                "--paper-mix", "--scale", "0.05", "--shards", "4",
                "--interconnect", "nvlink", drive, "1",
                "--report", str(path),
            ]) == 0
            reports.append(json.loads(path.read_text()))
        inline, threaded = reports
        assert inline["makespan_ms"] == threaded["makespan_ms"]
        assert inline["bus_ms"] == threaded["bus_ms"]


class TestShardsValidatedOnce:
    @pytest.mark.parametrize("shards", ["0", "-3"])
    @pytest.mark.parametrize("entry, argv", [
        (main, ["-q", "SELECT count(*) AS c FROM region"]),
        (main, []),  # the REPL's session
        (serve_main, ["--paper-mix"]),
        (net_main, ["serve"]),
    ])
    def test_non_positive_shards_exit_2(self, capsys, entry, argv, shards):
        status = exit_code(
            entry, [*argv, "--scale", "0.01", "--shards", shards],
        )
        assert status == 2
        assert "shards must be >= 1" in capsys.readouterr().err
