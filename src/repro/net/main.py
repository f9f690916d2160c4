"""``repro net`` — the network server and its client commands.

Usage:

    python -m repro.cli net serve --scale 0.1 --concurrency 4 \
        --policy fair --port 7341 --demo-tenants \
        --flight-recorder flight.json
    python -m repro.cli net run --port 7341 --token alpha-token \
        --paper-mix --scale 0.1 --verify-solo
    python -m repro.cli net run --port 7341 --token local -q "SELECT ..." \
        --trace-dir traces/
    python -m repro.cli net stats --port 7341 --token alpha-token \
        --out tenant-stats.json
    python -m repro.cli net stats --port 7341 --token local --prometheus
    python -m repro.cli net flight-recorder --port 7341 --token local \
        --out flight.json

``serve`` owns the engine: it builds a TPC-H catalog, an
:class:`~repro.serve.EngineSession` with a metrics registry, an
:class:`~repro.serve.AsyncEngine` worker pool under the selected
scheduling policy, and listens until SIGINT/SIGTERM — then drains,
prints per-tenant accounting, and exits 0.  ``--tenants FILE`` loads a
JSON tenant roster (name/token/priority/weight/quota/max_in_flight);
``--demo-tenants`` uses the built-in alpha/beta pair; the default is a
single unrestricted tenant with token ``local``.

``run`` is a thin client: one connection, the statements you ask for,
a per-query line each, and ``--verify-solo`` re-runs each distinct
statement on a local fresh engine at ``--scale`` and checks the rows
that travelled through the protocol are bit-identical.
``--trace-dir`` requests a distributed trace for every query and
writes the validated combined Chrome trace (plus the raw payloads)
into the directory.  ``stats --prometheus`` scrapes the METRICS
opcode; ``flight-recorder`` dumps the server's forensic ring.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from ..cli import add_engine_arguments, check_solo, make_session
from ..core import NestGPU
from ..errors import ReproError
from ..obs.telemetry import SLObjective
from ..serve.concurrent import AsyncEngine
from ..serve.plancache import normalize_sql
from ..serve.scheduler import paper_mix_statements
from ..tpch import generate_tpch
from .client import NetClientError, ReproNetClient
from .protocol import decode_rows, encode_rows
from .qos import TenantRegistry, demo_registry, single_tenant_registry
from .server import NetServer


def _add_connection_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, required=True,
                        help="server port")
    parser.add_argument("--token", default="local",
                        help="tenant auth token (default 'local')")


def build_net_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli net",
        description="Network-facing query server with multi-tenant QoS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the socket server")
    add_engine_arguments(serve)
    serve.add_argument("--concurrency", type=int, default=2, metavar="N",
                       help="engine worker threads (default 2)")
    serve.add_argument("--policy", choices=AsyncEngine.POLICIES,
                       default="priority",
                       help="scheduling policy (default priority-FIFO)")
    serve.add_argument("--queue-capacity", type=int, default=64,
                       help="bounded submission queue depth (default 64)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: ephemeral, printed)")
    tenants = serve.add_mutually_exclusive_group()
    tenants.add_argument("--tenants", metavar="FILE",
                         help="JSON tenant roster")
    tenants.add_argument("--demo-tenants", action="store_true",
                         help="built-in alpha/beta tenant pair")
    serve.add_argument("--slo-ms", type=float, default=1000.0,
                       help="default per-tenant latency objective in ms "
                            "(tenants may override via slo_ms; default 1000)")
    serve.add_argument("--slo-target", type=float, default=0.99,
                       help="fraction of queries that must meet the "
                            "objective (default 0.99)")
    serve.add_argument("--flight-recorder", metavar="PATH", default=None,
                       help="dump the flight-recorder ring to PATH as JSON "
                            "on shutdown")
    serve.add_argument("--flight-recorder-capacity", type=int, default=1024,
                       help="flight-recorder ring size (default 1024)")

    run = sub.add_parser("run", help="drive a server as one tenant")
    _add_connection_args(run)
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("-q", "--query", help="run one statement")
    source.add_argument("--paper-mix", action="store_true",
                        help="run the 10-query paper mix")
    run.add_argument("--repeat", type=int, default=1,
                     help="repeat the workload N times (default 1)")
    run.add_argument("--deadline", type=float, default=None,
                     help="per-query deadline in seconds")
    run.add_argument("--fetch-size", type=int, default=None,
                     help="rows per RESULT/ROWS page")
    run.add_argument("--scale", type=float, default=1.0,
                     help="scale for --verify-solo's local engine")
    run.add_argument("--verify-solo", action="store_true",
                     help="check rows are bit-identical to a local solo run")
    run.add_argument("--trace-dir", metavar="DIR", default=None,
                     help="trace every query; write the combined Chrome "
                          "trace and raw payloads into DIR")
    run.add_argument("-v", "--verbose", action="store_true",
                     help="print a line per query")

    stats = sub.add_parser("stats", help="fetch the server's STATS frame")
    _add_connection_args(stats)
    stats.add_argument("--out", metavar="PATH",
                       help="also write the stats JSON to a file")
    stats.add_argument("--prometheus", action="store_true",
                       help="scrape the METRICS opcode and print the "
                            "Prometheus text exposition instead")

    flight = sub.add_parser(
        "flight-recorder", help="dump the server's flight-recorder ring",
    )
    _add_connection_args(flight)
    flight.add_argument("--limit", type=int, default=None,
                        help="only the newest N records")
    flight.add_argument("--out", metavar="PATH",
                        help="also write the dump JSON to a file")
    return parser


def _load_registry(args) -> TenantRegistry:
    if args.tenants:
        return TenantRegistry.from_json_file(args.tenants)
    if args.demo_tenants:
        return demo_registry()
    return single_tenant_registry()


def _serve(args) -> int:
    import asyncio

    from ..obs import MetricsRegistry

    try:
        registry = _load_registry(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session = make_session(args, metrics=MetricsRegistry())
    try:
        slo_default = SLObjective(args.slo_ms, args.slo_target)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = AsyncEngine(
        session,
        workers=args.concurrency,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        tenant_budgets=registry.budgets(session.device_capacity_bytes),
        tenant_weights=registry.weights(),
        slo_objectives=registry.slo_objectives(),
        slo_default=slo_default,
        flight_recorder_capacity=args.flight_recorder_capacity,
    )
    server = NetServer(engine, registry, host=args.host, port=args.port)

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stopping.set)
        print(
            f"listening on {server.host}:{server.port} "
            f"(policy {engine.policy}, {engine.workers} workers, "
            f"tenants: {', '.join(sorted(registry.specs))})",
            flush=True,
        )
        await stopping.wait()
        print("draining...", flush=True)
        await server.drain(timeout=60.0)
        await server.stop()

    try:
        asyncio.run(main())
    finally:
        engine.shutdown(drain=False, timeout=10.0)
        tenants = engine.tenant_stats()
        if args.flight_recorder:
            engine.flight_recorder.write_json(args.flight_recorder)
            print(
                f"flight recorder: {len(engine.flight_recorder)} records "
                f"({engine.flight_recorder.dropped} dropped) "
                f"-> {args.flight_recorder}",
                flush=True,
            )
        session.close()
    print(json.dumps({
        "tenants": tenants,
        "flight_recorder": {
            "recorded": engine.flight_recorder.recorded,
            "dropped": engine.flight_recorder.dropped,
        },
    }, indent=2))
    return 0


def _verify_solo(statements, results, args) -> int:
    """Protocol rows vs a local fresh-engine run, per distinct statement.

    Both sides pass through the wire codec, so a mismatch is a real
    row difference, not a serialisation artefact.
    """
    received: dict[str, list] = {}
    for sql, result in zip(statements, results):
        if result is not None:
            received.setdefault(normalize_sql(sql), []).append(result.rows)

    def compare(sql, solo):
        expected = repr(decode_rows(encode_rows(solo.rows)))
        if any(repr(rows) != expected for rows in received[normalize_sql(sql)]):
            return "rows differ from solo run"
        return None

    return check_solo(
        "solo bit-identity",
        [sql for sql, result in zip(statements, results) if result is not None],
        lambda: NestGPU(generate_tpch(args.scale)),
        compare,
    )


def _run(args) -> int:
    statements = (
        paper_mix_statements() if args.paper_mix else [args.query]
    ) * max(1, args.repeat)
    try:
        client = ReproNetClient(
            args.host, args.port, token=args.token,
            fetch_size=args.fetch_size,
        )
    except OSError as exc:
        print(f"error: cannot connect: {exc}", file=sys.stderr)
        return 2
    results = []
    failures = 0
    with client:
        for seq, sql in enumerate(statements):
            try:
                result = client.execute(
                    sql, deadline_s=args.deadline,
                    trace=bool(args.trace_dir),
                )
            except NetClientError as exc:
                results.append(None)
                failures += 1
                print(f"  [{seq:2d}] error {exc}", file=sys.stderr)
                continue
            results.append(result)
            if args.verbose:
                print(
                    f"  [{seq:2d}] {result.num_rows:5d} rows "
                    f"{result.stats.get('wall_run_ms', 0.0):8.2f} ms wall "
                    f"{'hit ' if result.plan_cache_hit else 'miss'} "
                    f"{normalize_sql(sql)[:50]}"
                )
        done = [r for r in results if r is not None]
        total_rows = sum(r.num_rows for r in done)
        print(
            f"tenant {client.tenant}: {len(done)}/{len(statements)} queries, "
            f"{total_rows} rows ({client.policy} policy)"
        )
        traces = client.traces() if args.trace_dir else []
    if args.trace_dir:
        status = _write_traces(args.trace_dir, client.tenant, traces)
        if status:
            return status
    if args.verify_solo and _verify_solo(statements, results, args):
        return 1
    return 1 if failures else 0


def _write_traces(trace_dir, tenant, traces) -> int:
    """Validate + write the distributed trace (0 on success)."""
    import os

    from ..obs.export import write_trace_document
    from ..obs.telemetry import distributed_chrome_trace, validate_chrome_trace

    os.makedirs(trace_dir, exist_ok=True)
    if not traces:
        print("no traces returned (all queries failed?)", file=sys.stderr)
        return 1
    payload_path = os.path.join(trace_dir, f"{tenant}-trace-payloads.json")
    with open(payload_path, "w") as handle:
        json.dump(traces, handle, indent=2)
    document = distributed_chrome_trace(traces)
    try:
        events = validate_chrome_trace(document)
    except ValueError as exc:
        print(f"distributed trace INVALID: {exc}", file=sys.stderr)
        return 1
    trace_path = os.path.join(trace_dir, f"{tenant}-distributed-trace.json")
    write_trace_document(trace_path, document)
    print(
        f"distributed trace: {len(traces)} queries, {events} events "
        f"-> {trace_path}"
    )
    return 0


def _stats(args) -> int:
    try:
        with ReproNetClient(args.host, args.port, token=args.token) as client:
            if args.prometheus:
                payload = client.metrics()
                text = payload.get("text", "")
            else:
                stats = client.stats()
                text = json.dumps(stats, indent=2, sort_keys=True)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    return 0


def _flight(args) -> int:
    try:
        with ReproNetClient(args.host, args.port, token=args.token) as client:
            dump = client.flight_recorder(limit=args.limit)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(dump, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return 0


def net_main(argv: list[str] | None = None) -> int:
    args = build_net_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "run":
        return _run(args)
    if args.command == "flight-recorder":
        return _flight(args)
    return _stats(args)
