"""A small interactive shell for the NestGPU reproduction.

Usage:

    python -m repro.cli --scale 5                 # REPL over TPC-H
    python -m repro.cli --scale 5 -q "SELECT ..." # one-shot query
    python -m repro.cli --mode nested --explain -q "..."
    python -m repro.cli --paper-query tpch_q2 --analyze   # EXPLAIN ANALYZE
    python -m repro.cli -q "..." --trace trace.json --metrics metrics.json
    python -m repro.cli fuzz --seed 7 --iterations 50   # differential fuzz
    python -m repro.cli serve --paper-mix --streams 4   # workload scheduler
    python -m repro.cli serve --paper-mix --concurrency 4  # real worker pool
    python -m repro.cli net serve --port 7341 --demo-tenants  # socket server
    python -m repro.cli net run --port 7341 --token alpha-token --paper-mix
    python -m repro.cli net run --port 7341 --token local -q "..." \
        --trace-dir traces/                       # distributed tracing
    python -m repro.cli net stats --port 7341 --token local --prometheus
    python -m repro.cli net flight-recorder --port 7341 --token local

The REPL runs on one :class:`~repro.serve.EngineSession`: resident
columns, pool high-water, subquery indexes and cached plans persist
across the statements you type (``\\session`` shows the standing
state).  Terminate statements with ``;``.  Meta-commands:
``\\d`` lists tables, ``\\explain <sql>`` shows the plan and the
transient/invariant marking, ``\\analyze <sql>`` runs EXPLAIN ANALYZE,
``\\source <sql>`` prints the generated drive program, ``\\session``
dumps session statistics, ``\\q`` quits.

``--trace PATH`` exports a Chrome trace-event JSON of every traced
query (load it at https://ui.perfetto.dev); ``--metrics PATH`` writes
the engine metrics registry as JSON and prints the text dump.
"""

from __future__ import annotations

import argparse
import sys

from .core import NestGPU, QueryResult
from .engine import EngineOptions
from .errors import ReproError
from .gpu import DeviceSpec
from .tpch import ALL_EVALUATION_QUERIES, generate_tpch


def format_result(result: QueryResult, max_rows: int = 40) -> str:
    """Render a query result as an aligned text table."""
    header = result.column_names
    def render(value) -> str:
        if isinstance(value, float):
            return str(int(value)) if value.is_integer() else f"{value:.4f}"
        return str(value)

    rows = [
        tuple(render(v) for v in row) for row in result.rows[:max_rows]
    ]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(header, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if result.num_rows > max_rows:
        lines.append(f"... ({result.num_rows - max_rows} more rows)")
    lines.append(
        f"({result.num_rows} rows; {result.total_ms:.3f} ms modelled "
        f"device time; path: {result.plan_choice})"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Run SQL against the NestGPU reproduction on micro-scale TPC-H.",
    )
    add_engine_arguments(parser)
    parser.add_argument(
        "-q", "--query", help="run one statement and exit",
    )
    parser.add_argument(
        "--paper-query", choices=sorted(ALL_EVALUATION_QUERIES),
        help="run one of the paper's evaluation queries and exit",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="with a query: print the plan instead of executing",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="with a query: EXPLAIN ANALYZE (run + annotated plan tree)",
    )
    parser.add_argument(
        "--source", action="store_true",
        help="with a query: print the generated drive program instead of executing",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="export a Chrome trace-event JSON of the traced queries",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="write the metrics registry as JSON and print the text dump",
    )
    parser.add_argument(
        "--no-adaptive", action="store_true",
        help="disable mid-query re-planning (never abandon a running "
        "nested loop for its unnested twin)",
    )
    parser.add_argument(
        "--no-exact-selectivity", action="store_true",
        help="use the planner's selectivity heuristics instead of exact "
        "predicate counting at optimization time",
    )
    return parser


def add_engine_arguments(parser) -> None:
    """The engine-shape flags every front end shares (the shell,
    ``serve`` and ``net serve``); :func:`make_session` and
    :func:`make_engine` read them back."""
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="TPC-H micro scale factor (default 1)",
    )
    parser.add_argument(
        "--mode", choices=("auto", "nested", "unnested"), default="auto",
        help="execution mode (default: the cost model decides)",
    )
    parser.add_argument(
        "--device", choices=("v100", "gtx1080", "a100"), default="v100",
        help="simulated device preset",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="modelled devices in the group (default 1: the solo "
        "engine, bit-identical)",
    )
    parser.add_argument(
        "--interconnect", choices=("pcie", "nvlink", "nvswitch"),
        default="pcie",
        help="peer fabric between shards (default pcie)",
    )
    parser.add_argument(
        "--fusion", choices=("off", "on", "auto"), default="off",
        help="kernel fusion over data-path chains: 'on' forces fused "
        "launches, 'auto' decides at plan time and measures only "
        "programs whose winner depends on the data (default off)",
    )


def engine_options(args) -> EngineOptions:
    return EngineOptions(
        adaptive=not getattr(args, "no_adaptive", False),
        exact_selectivity=not getattr(args, "no_exact_selectivity", False),
        fusion=getattr(args, "fusion", "off"),
    )


def device_preset(args) -> DeviceSpec:
    return {
        "v100": DeviceSpec.v100,
        "gtx1080": DeviceSpec.gtx1080,
        "a100": DeviceSpec.a100,
    }[args.device]()


def _usage_error(exc: ValueError) -> SystemExit:
    """An engine-shape flag the engine refused (``--shards 0``): print
    it the way argparse would and exit 2."""
    print(f"error: {exc}", file=sys.stderr)
    return SystemExit(2)


def make_engine(args, tracer=None, metrics=None):
    device = device_preset(args)
    catalog = generate_tpch(args.scale)
    if args.shards == 1:
        return NestGPU(
            catalog, device=device, options=engine_options(args),
            mode=args.mode, tracer=tracer, metrics=metrics,
        )
    from .core import ShardedEngine
    from .gpu.spec import InterconnectSpec

    try:
        return ShardedEngine(
            catalog, device=device, options=engine_options(args),
            mode=args.mode, shards=args.shards,
            interconnect=InterconnectSpec.from_name(args.interconnect),
            tracer=tracer, metrics=metrics,
        )
    except ValueError as exc:
        raise _usage_error(exc) from None


def make_session(args, tracer=None, metrics=None, coefficients=None):
    from .serve import EngineSession

    try:
        return EngineSession(
            generate_tpch(args.scale), device=device_preset(args),
            options=engine_options(args), mode=args.mode,
            tracer=tracer, metrics=metrics, coefficients=coefficients,
            shards=args.shards, interconnect=args.interconnect,
        )
    except ValueError as exc:
        raise _usage_error(exc) from None


def run_statement(db: NestGPU, sql: str, explain: bool = False,
                  source: bool = False, analyze: bool = False) -> str:
    if analyze:
        return db.explain(sql, analyze=True)
    if explain:
        return db.explain(sql)
    if source:
        return db.drive_source(sql)
    return format_result(db.execute(sql))


def repl(db: NestGPU, stdin=None, stdout=None) -> None:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    buffer: list[str] = []
    print("NestGPU reproduction shell — \\q quits, \\d lists tables", file=stdout)
    for line in stdin:
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            command, _, rest = stripped.partition(" ")
            if command == "\\q":
                return
            if command == "\\d":
                for table in db.catalog:
                    print(f"  {table.name:12s} {table.num_rows:>9d} rows", file=stdout)
                continue
            if command == "\\session":
                if hasattr(db, "stats") and callable(db.stats):
                    import json

                    print(json.dumps(db.stats(), indent=2), file=stdout)
                else:
                    print("not running on an engine session", file=stdout)
                continue
            if command in ("\\explain", "\\analyze", "\\source"):
                try:
                    sql = rest.rstrip(";")
                    output = run_statement(
                        db, sql,
                        explain=(command == "\\explain"),
                        source=(command == "\\source"),
                        analyze=(command == "\\analyze"),
                    )
                    print(output, file=stdout)
                except ReproError as exc:
                    print(f"error: {exc}", file=stdout)
                continue
            print(f"unknown command {command}", file=stdout)
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            sql = "\n".join(buffer)
            buffer.clear()
            try:
                print(run_statement(db, sql), file=stdout)
            except ReproError as exc:
                print(f"error: {exc}", file=stdout)
    # EOF with a pending statement: run it
    if buffer:
        sql = "\n".join(buffer)
        try:
            print(run_statement(db, sql), file=stdout)
        except ReproError as exc:
            print(f"error: {exc}", file=stdout)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "fuzz":
        from .fuzz.runner import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "serve":
        from .serve.main import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "net":
        from .net.main import net_main

        return net_main(argv[1:])
    args = build_parser().parse_args(argv)
    tracer = metrics = None
    if args.trace or args.analyze:
        from .obs import Tracer

        tracer = Tracer()
    if args.metrics:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    sql = args.query
    if args.paper_query:
        if sql:
            print("error: -q and --paper-query are exclusive", file=sys.stderr)
            return 2
        sql = ALL_EVALUATION_QUERIES[args.paper_query]
    session = None
    if sql:
        db = make_engine(args, tracer=tracer, metrics=metrics)
    else:
        # the REPL keeps one engine session alive across statements
        db = session = make_session(args, tracer=tracer, metrics=metrics)
    status = 0
    try:
        if sql:
            try:
                print(run_statement(
                    db, sql, args.explain, args.source, args.analyze,
                ))
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 1
        else:
            repl(db)
    finally:
        if session is not None:
            session.close()
        if tracer is not None and args.trace:
            from .obs import write_chrome_trace

            tracer.finish()
            write_chrome_trace(args.trace, tracer)
            print(f"trace written to {args.trace}", file=sys.stderr)
        if metrics is not None:
            print(metrics.render_text(), file=sys.stderr)
            metrics.write_json(args.metrics)
            print(f"metrics written to {args.metrics}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
