"""``repro serve`` — run a workload through the serving engine.

Usage:

    python -m repro.cli serve --paper-mix --streams 4 --scale 0.1
    python -m repro.cli serve --workload queries.sql --report out.json
    python -m repro.cli serve --paper-mix --trace streams.json --verify-solo
    python -m repro.cli serve --paper-mix --concurrency 4 --scale 0.1

``--workload FILE`` reads ``;``-separated statements; ``--paper-mix``
uses the built-in 10-query mixed paper workload.  ``--report`` writes
the full :class:`WorkloadReport` JSON, ``--trace`` a per-stream Chrome
trace.  ``--verify-solo`` re-runs each *distinct* statement on a fresh
single-query engine and checks the fresh-session latency is
bit-identical — the refactor's no-regression contract.

Both forms run the one :class:`~repro.serve.concurrent.AsyncEngine`.
``--streams N`` drains the batch on the calling thread and places each
query on the earliest-free of N modelled streams (deterministic);
``--concurrency N`` starts N worker threads, one per modelled stream,
that execute against the shared session concurrently.  Either way the
report carries wall-clock timings alongside the modelled placement.

``--calibrate`` closes the cost model's feedback loop: the workload
runs twice, with an online recalibration between the passes, and the
before/after predicted-vs-actual error is printed (and written as
JSON with ``--calibration-report``).  ``--stale-model FACTOR`` seeds
deliberately wrong coefficients so the recovery is visible:

    python -m repro.cli serve --paper-mix --scale 0.1 \
        --calibrate --stale-model 0.04 --calibration-report cal.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..cli import (
    add_engine_arguments,
    device_preset,
    engine_options,
    make_session,
)
from ..errors import ReproError
from ..tpch import generate_tpch
from .concurrent import AsyncEngine
from .plancache import normalize_sql
from .scheduler import paper_mix_statements, split_statements


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve a query workload on one engine session with "
        "modelled concurrent streams.",
    )
    add_engine_arguments(parser)
    parser.add_argument("--streams", type=int, default=2,
                        help="modelled device streams (default 2)")
    parser.add_argument("--concurrency", type=int, default=0, metavar="N",
                        help="execute on N worker threads (one per modelled "
                        "stream); 0 = drain on the calling thread")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="drain timeout in seconds for --concurrency "
                        "(default 300)")
    parser.add_argument("--device-trace", metavar="PATH",
                        help="write a per-device Chrome trace (one lane per "
                        "shard, per-query busy spans)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", metavar="FILE",
                        help="file of ;-separated SQL statements")
    source.add_argument("--paper-mix", action="store_true",
                        help="the built-in 10-query mixed paper workload")
    parser.add_argument("--report", metavar="PATH",
                        help="write the workload report as JSON")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a per-stream Chrome trace")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the session metrics registry as JSON")
    parser.add_argument("--verify-solo", action="store_true",
                        help="check fresh-session latencies are bit-identical "
                        "to the single-query engine")
    parser.add_argument("--calibrate", action="store_true",
                        help="run the workload twice with an online cost-model "
                        "recalibration between the passes, and report the "
                        "predicted-vs-actual error before and after")
    parser.add_argument("--stale-model", type=float, default=None,
                        metavar="FACTOR",
                        help="seed the cost model with coefficients scaled by "
                        "FACTOR (simulates a stale/mis-specified model; "
                        "combine with --calibrate to watch it recover)")
    parser.add_argument("--calibration-report", metavar="PATH",
                        help="write the before/after calibration error report "
                        "as JSON (requires --calibrate)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-query placement lines")
    return parser


def verify_solo_identity(statements, args) -> list[str]:
    """Fresh-session vs single-query engine, per distinct statement.

    Returns a list of mismatch descriptions (empty == all bit-identical).
    The session side uses a *fresh* session per statement: within-batch
    queries legitimately get faster as state amortises; the contract is
    that the session machinery itself adds zero modelled cost.

    With ``shards > 1`` the modelled times legitimately differ (the
    group pays exchanges and gathers the solo engine never sees), so
    the contract weakens to *row equivalence*: the sharded result must
    contain exactly the solo rows, order-insensitive, floats compared
    to 6 decimal places.
    """
    from ..core import NestGPU

    def row_key(rows):
        def norm(value):
            if isinstance(value, float):
                # NaN != NaN would flag identical empty-aggregate rows
                return "nan" if value != value else f"{value:.6f}"
            return repr(value)

        return sorted(tuple(norm(v) for v in row) for row in rows)

    mismatches: list[str] = []
    seen: set[str] = set()
    for sql in statements:
        key = normalize_sql(sql)
        if key in seen:
            continue
        seen.add(key)
        solo = NestGPU(
            generate_tpch(args.scale), device=device_preset(args),
            options=engine_options(args), mode=args.mode,
        ).execute(sql)
        with make_session(args) as session:
            fresh = session.execute(sql)
        if args.shards > 1:
            if row_key(solo.rows) != row_key(fresh.rows):
                mismatches.append(
                    f"{key[:60]}: sharded rows ({fresh.num_rows}) != "
                    f"solo rows ({solo.num_rows})"
                )
        elif repr(solo.stats.total_ns) != repr(fresh.stats.total_ns):
            mismatches.append(
                f"{key[:60]}: solo {solo.stats.total_ns!r} ns != "
                f"session {fresh.stats.total_ns!r} ns"
            )
    return mismatches


def write_device_trace(report, shards: int, path: str) -> None:
    """A Chrome trace with one lane per modelled device.

    Each completed query contributes one busy span per device it
    touched (from the group report; solo results land on device 0), so
    the artifact shows how evenly the scatter-gather drive loaded the
    group.
    """
    events: list[dict] = [
        {
            "name": "thread_name", "ph": "M", "pid": 0, "tid": dev,
            "args": {"name": f"device {dev}"},
        }
        for dev in range(max(shards, 1))
    ]
    for query in report.completed:
        result = query.result
        devices = (
            result.group_report.get("devices", [])
            if result is not None and result.group_report is not None
            else []
        )
        if not devices and result is not None:
            devices = [{
                "device": 0,
                "total_ns": result.stats.total_ns,
                "kernel_time_ns": result.stats.kernel_time_ns,
                "peer_bytes": 0,
            }]
        for dev in devices:
            if not dev["total_ns"]:
                continue
            events.append({
                "name": normalize_sql(query.sql)[:60],
                "cat": "device",
                "ph": "X",
                "ts": query.start_ns / 1e3,
                "dur": dev["total_ns"] / 1e3,
                "pid": 0,
                "tid": dev["device"],
                "args": {
                    "seq": query.seq,
                    "kernel_ms": dev["kernel_time_ns"] / 1e6,
                    "peer_bytes": dev.get("peer_bytes", 0),
                    "strategy": (
                        result.plan_choice if result is not None else None
                    ),
                },
            })
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": {"clock": "modelled-device-ns"}},
            handle,
        )
        handle.write("\n")


def serve_main(argv: list[str] | None = None) -> int:
    args = build_serve_parser().parse_args(argv)
    if args.streams < 1:
        print("error: --streams must be >= 1", file=sys.stderr)
        return 2
    if args.concurrency < 0:
        print("error: --concurrency must be >= 0", file=sys.stderr)
        return 2
    if args.paper_mix:
        statements = paper_mix_statements()
    else:
        try:
            with open(args.workload) as handle:
                statements = split_statements(handle.read())
        except OSError as exc:
            print(f"error: cannot read workload: {exc}", file=sys.stderr)
            return 2
    if not statements:
        print("error: workload is empty", file=sys.stderr)
        return 2

    if args.calibration_report and not args.calibrate:
        print("error: --calibration-report requires --calibrate",
              file=sys.stderr)
        return 2
    if args.calibrate and args.shards > 1:
        print("error: --calibrate needs a single-device session "
              "(the calibrator samples one clock)", file=sys.stderr)
        return 2
    metrics = None
    if args.metrics or args.calibrate:
        # the calibration flow reads prediction errors off the query
        # log, so it needs a registry even without --metrics
        from ..obs import MetricsRegistry

        metrics = MetricsRegistry()

    coefficients = None
    if args.stale_model is not None:
        from ..core.calibrator import CostCoefficients

        try:
            coefficients = CostCoefficients.from_spec(
                device_preset(args)
            ).scaled(args.stale_model)
        except ValueError as exc:
            print(f"error: --stale-model: {exc}", file=sys.stderr)
            return 2

    session = make_session(args, metrics=metrics, coefficients=coefficients)

    def run_pass():
        """One full workload pass (fresh engine, shared session)."""
        engine = AsyncEngine(
            session,
            workers=args.concurrency or args.streams,
            # a closed batch is submitted whole before it drains: size
            # the queue from it so it cannot trip its own backpressure
            queue_capacity=max(64, len(statements)),
            autostart=bool(args.concurrency),
        )
        try:
            return engine.run_batch(statements, timeout=args.timeout)
        finally:
            engine.shutdown(drain=False, timeout=10.0)

    calibration_payload = None
    try:
        report = run_pass()
        if report is None:
            print(
                f"error: workload did not drain within "
                f"{args.timeout:.0f}s",
                file=sys.stderr,
            )
            return 1
        if args.calibrate:
            boundary = len(metrics.query_log)
            before = metrics.cost_error_summary(0, boundary)
            before_coeff = session.engine.coefficients
            recal = session.recalibrate()
            if recal is None:
                print(
                    "calibration: not enough kernel samples to fit; "
                    "coefficients unchanged",
                    file=sys.stderr,
                )
                return 1
            report = run_pass()
            if report is None:
                print(
                    f"error: second pass did not drain within "
                    f"{args.timeout:.0f}s",
                    file=sys.stderr,
                )
                return 1
            after = metrics.cost_error_summary(start=boundary)
            fitted = session.engine.coefficients
            print(
                f"recalibration: cost-model version "
                f"{before_coeff.version} -> {fitted.version}, "
                f"{recal['plan_cache_evicted']} cached plans evicted"
            )
            print(
                "prediction error: mean "
                f"{before['mean_abs_error_pct']:.1f}% -> "
                f"{after['mean_abs_error_pct']:.1f}% "
                f"(max {before['max_abs_error_pct']:.1f}% -> "
                f"{after['max_abs_error_pct']:.1f}%)"
            )
            calibration_payload = {
                "workload": len(statements),
                "before": {
                    "coefficients": before_coeff.to_dict(),
                    "error": before,
                },
                "after": {
                    "coefficients": fitted.to_dict(),
                    "error": after,
                },
                "recalibration": {
                    "version": recal["version"],
                    "plan_cache_evicted": recal["plan_cache_evicted"],
                    "samples": recal["samples"],
                },
                "improved": (
                    before["mean_abs_error_pct"] is not None
                    and after["mean_abs_error_pct"] is not None
                    and after["mean_abs_error_pct"]
                    < before["mean_abs_error_pct"]
                ),
            }
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()

    if args.verbose:
        for query in report.queries:
            if query.status == "done":
                wall = (
                    f" wall {query.wall_run_ms:7.2f} ms"
                    if args.concurrency else ""
                )
                print(
                    f"  [{query.seq:2d}] stream {query.stream} "
                    f"start {query.start_ns / 1e6:9.3f} ms "
                    f"dur {query.duration_ns / 1e6:9.3f} ms "
                    f"{'hit ' if query.plan_cache_hit else 'miss'}{wall} "
                    f"{normalize_sql(query.sql)[:50]}"
                )
            else:
                print(f"  [{query.seq:2d}] {query.status}: {query.detail}")
    print(report.summary())
    if args.concurrency:
        wall_s = sum(q.wall_run_ms for q in report.completed) / 1e3
        print(
            f"real execution: {args.concurrency} workers, "
            f"{wall_s:.2f} s device wall time"
        )
    print(
        "plan cache: {hits} hits / {misses} misses "
        "({hit_ratio:.0%})".format(**session.plan_cache.stats())
    )

    if args.report:
        payload = report.to_dict()
        payload["session"] = session.stats()
        payload["shards"] = args.shards
        payload["interconnect"] = args.interconnect if args.shards > 1 else None
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.report}", file=sys.stderr)
    if args.trace:
        report.write_chrome_trace(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.device_trace:
        write_device_trace(report, args.shards, args.device_trace)
        print(f"device trace written to {args.device_trace}",
              file=sys.stderr)
    if args.metrics and metrics is not None:
        metrics.write_json(args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    if args.calibration_report and calibration_payload is not None:
        with open(args.calibration_report, "w") as handle:
            json.dump(calibration_payload, handle, indent=2)
            handle.write("\n")
        print(
            f"calibration report written to {args.calibration_report}",
            file=sys.stderr,
        )

    if args.verify_solo:
        mismatches = verify_solo_identity(statements, args)
        label = (
            "solo bit-identity" if args.shards == 1
            else f"sharded({args.shards}) row equivalence"
        )
        if mismatches:
            print(f"{label} FAILED:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"{label}: OK")
    return 0
