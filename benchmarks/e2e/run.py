#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: six workloads, wall + modelled.

One workload in this process (what ``BENCHMARK.json``'s driver runs)::

    python3 benchmarks/e2e/run.py --workload session_warm --seed 0 \\
        --seconds 10 --trace 0

prints every metric by name and, as its last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

The whole suite, each (workload, repeat) in its own child process with
fixed operation counts, then one traced run per workload::

    python3 benchmarks/e2e/run.py --seed 0 --repeats 3
    python3 benchmarks/e2e/run.py --quick        # < 30 s smoke

writes ``benchmarks/e2e/out/result-seed<N>.json`` for ``compare.py``.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: share of ``--seconds`` a traced run spends on its untraced half
UNTRACED_SHARE = 0.4


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0``: set iteration order reaches the
    engine's preload order, so an unpinned hash seed can move modelled
    totals between runs of one commit."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _import_system() -> float:
    """Put the checkout's ``src`` first on the path and import the
    system under test; returns seconds since process start."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
                 "runs the engine from the checkout's source tree")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: F401  (pulls in numpy and repro)
    return perf_counter() - _PROCESS_START


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# one workload, this process
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float | None,
                 passes: int | None, trace: bool, import_s: float,
                 data_seed: int = 0, corrupt_reference=None) -> dict:
    """Set up, drive and check one workload; returns the full record.

    ``seed`` orders the statements and draws the parameters;
    ``data_seed`` generates the catalog.  ``corrupt_reference`` is the
    self-test's hook: a callable handed the checker's expected rows to
    falsify before anything runs.
    """
    import layers
    import metrics as registry
    from repro.tpch import generate_tpch
    from workloads import SCALE_FACTOR, WORKLOADS, run_phase

    cls = WORKLOADS[name]
    setups = []
    workload = None
    checkers = []
    per_layer = trace_info = None
    try:
        for _repeat in range(1 if trace else SETUP_REPEATS):
            if workload is not None:
                workload.close()
            t0 = perf_counter()
            catalog = generate_tpch(
                SCALE_FACTOR, seed=data_seed, use_cache=False
            )
            t1 = perf_counter()
            workload = cls(catalog, seed)
            if corrupt_reference is not None:
                corrupt_reference(workload.checker.expected)
            t2 = perf_counter()
            workload.start()
            t3 = perf_counter()
            setups.append((t1 - t0, t2 - t1, t3 - t2))
        generate_s, reference_s, warmup_s = (
            statistics.median(column) for column in zip(*setups)
        )
        setup_s = import_s + statistics.median(sum(row) for row in setups)

        checkers.append(workload.checker)
        budget = seconds
        if trace and seconds is not None:
            budget = seconds * UNTRACED_SHARE
        phase = run_phase(workload, budget, passes)
        plan_cache = _plan_cache(workload)
        if trace:
            # a fresh instance, so the traced statements meet the same
            # cache states the untraced ones did
            traced = cls(catalog, seed)
            checkers.append(traced.checker)
            per_layer, trace_info = _traced_phase(
                traced, None if seconds is None else seconds - budget,
                passes, phase,
            )
            per_layer.update({
                "tpch.generate_s": generate_s,
                "bench.reference_s": reference_s,
                "bench.import_s": import_s,
                "bench.warmup_s": warmup_s,
            })
    finally:
        if workload is not None:
            workload.close()

    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)
    drift = sum(c.modelled_drift for c in checkers)
    samples_ms = [s * 1e3 for s in phase.all_samples()]
    record = {
        "workload": name,
        "seed": seed,
        "data_seed": data_seed,
        "passes": phase.passes,
        "samples": len(samples_ms),
        "attempted": attempted,
        "failed": failed,
        "modelled_drift": drift,
        "correct": failed == 0 and (drift == 0 or not cls.deterministic),
        "end_to_end": {
            "query_wall_ms_p50": statistics.median(samples_ms),
            "query_wall_ms_p95": layers.percentile(samples_ms, 95),
            "queries_per_s": len(samples_ms) / phase.wall_s,
            "modelled_ms_per_query": workload.checker.modelled_ms_per_query(),
            "failed_share": failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        },
        "exact": {
            "modelled_ns_by_statement": workload.checker.modelled_by_statement(),
            "plan_cache": plan_cache,
        },
    }
    if per_layer is not None:
        per_layer["bench.failed_share"] = failed / attempted
        per_layer["gpu.modelled_ms_per_query"] = (
            record["end_to_end"]["modelled_ms_per_query"]
        )
        declared = {
            metric.name for metric in registry.PER_LAYER
            if name in metric.workloads and not metric.suite_only
        }
        missing = sorted(
            metric for metric in declared if per_layer.get(metric) is None
        )
        if missing:
            raise RuntimeError(f"{name}: no value for {missing}")
        record["per_layer"] = {
            metric: per_layer[metric] for metric in sorted(declared)
        }
        record["trace"] = trace_info
        record["correct"] = (
            record["correct"] and trace_info["nesting_violations"] == 0
        )
    return record


def _traced_phase(traced, seconds, passes, untraced) -> tuple[dict, dict]:
    """Run ``traced`` (not yet started) under the span recorder; returns
    its per-layer metrics and what was written to ``out/``."""
    import layers
    from tracing import SpanRecorder
    from workloads import run_phase

    recorder = SpanRecorder()
    try:
        # spans on the server's threads cannot be tied to a warm-up
        # root, so a multi-client workload warms up unshimmed
        if traced.clients == 1:
            recorder.install_shims()
        with recorder.span("warmup", "bench"):
            traced.start()
        if traced.clients > 1:
            recorder.install_shims()
        before = _plan_cache(traced)
        phase = run_phase(traced, seconds, passes, recorder)
        recorder.remove_shims()
        per_layer = layers.compute(traced, recorder, phase, untraced, before)
    finally:
        recorder.remove_shims()
        traced.close()
    recorder.write(OUT / f"trace-{traced.name}.json")
    return per_layer, {
        "file": f"trace-{traced.name}.json",
        "spans": len(recorder.spans),
        "nesting_violations": recorder.nesting_violations(),
    }


def _plan_cache(workload) -> dict | None:
    if workload.session is None:
        return None
    stats = workload.session.stats()["plan_cache"]
    return {key: stats[key] for key in ("hits", "misses", "evictions")}


def driver_line(record: dict, trace: bool) -> str:
    """The contract's last stdout line.  With ``--trace 1`` it carries
    *every* per-layer metric; one whose layer is not on this workload's
    path reads 0 there (the record and the suite JSON leave it out)."""
    import metrics as registry

    if trace:
        values = {
            metric.name: {
                "value": record["per_layer"].get(metric.name, 0),
                "unit": metric.unit,
            }
            for metric in registry.PER_LAYER if not metric.suite_only
        }
    else:
        values = {
            metric.name: {
                "value": record["end_to_end"][metric.name],
                "unit": metric.unit,
            }
            for metric in registry.END_TO_END if metric.bounded
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": values,
    })


def _row(name: str, value, unit: str, clock: str, extra: str = "") -> str:
    shown = "" if value is None else f"{value:.6g}"
    return f"  {name:<44} {shown:>14} {unit:<12} [{clock}]{extra}"


def print_record(record: dict) -> None:
    import metrics as registry

    print(f"== {record['workload']} seed={record['seed']} "
          f"passes={record['passes']} samples={record['samples']} "
          f"failed={record['failed']}/{record['attempted']} "
          f"modelled_drift={record['modelled_drift']}")
    for metric in registry.END_TO_END:
        value = record["end_to_end"][metric.name]
        print(_row(metric.name, value, metric.unit, metric.clock))
    for metric in registry.PER_LAYER:
        value = record.get("per_layer", {}).get(metric.name)
        if value is not None:
            print(_row(metric.name, value, metric.unit, metric.clock))


# ---------------------------------------------------------------------------
# the suite: child processes, fixed counts, aggregation
# ---------------------------------------------------------------------------


def _child(name: str, seeds: tuple[int, int], passes: int, trace: bool) -> dict:
    seed, data_seed = seeds
    record_path = OUT / f"record-{name}-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--data-seed", str(data_seed),
        "--passes", str(passes), "--trace", str(int(trace)),
        "--record", str(record_path), "--quiet",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(command)} exited {done.returncode}")
    try:
        return json.loads(record_path.read_text())
    finally:
        record_path.unlink()


def _git_commit() -> str | None:
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def run_suite(seeds: tuple[int, int], repeats: int, quick: bool,
              only: list[str]) -> int:
    import numpy
    import metrics as registry
    from workloads import SCALE_FACTOR, WORKLOADS

    OUT.mkdir(exist_ok=True)
    divisor = 10 if quick else 1
    seed, data_seed = seeds
    result = {
        "header": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "git_commit": _git_commit(),
            "seed": seed,
            "data_seed": data_seed,
            "sf": SCALE_FACTOR,
            "repeats": repeats,
            "quick": quick,
            "passes": {
                name: max(1, cls.passes // divisor)
                for name, cls in WORKLOADS.items()
            },
        },
        "workloads": {},
    }
    ok = True
    for name in only or WORKLOADS:
        cls = WORKLOADS[name]
        passes = result["header"]["passes"][name]
        runs = [_child(name, seeds, passes, False) for _ in range(repeats)]
        entry = {
            "end_to_end": {},
            "samples": [run["samples"] for run in runs],
            "deterministic": cls.deterministic,
            # modelled totals per statement and plan-cache counts of the
            # first repeat; a single-threaded workload repeats them exactly
            "exact": runs[0]["exact"],
            "exact_repeats": all(
                run["exact"] == runs[0]["exact"] for run in runs
            ),
        }
        for metric in registry.END_TO_END:
            values = [run["end_to_end"][metric.name] for run in runs]
            q1, q3 = _quartiles(values)
            entry["end_to_end"][metric.name] = {
                "unit": metric.unit, "clock": metric.clock,
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "runs": values,
            }
        if not cls.deterministic:
            # worker interleaving may move modelled numbers: say by how much
            modelled = entry["end_to_end"]["modelled_ms_per_query"]["runs"]
            entry["modelled_spread"] = (
                (max(modelled) - min(modelled)) / statistics.median(modelled)
            )
        if not all(run["correct"] for run in runs):
            print(f"FAIL {name}: wrong rows, errors or modelled drift",
                  file=sys.stderr)
            ok = False
        if cls.deterministic and not entry["exact_repeats"]:
            print(f"FAIL {name}: modelled totals or exact counts differ "
                  "between repeats", file=sys.stderr)
            ok = False
        if not quick:
            traced = _child(name, seeds, max(1, passes // 4), True)
            ok = ok and traced["correct"]
            p50 = entry["end_to_end"]["query_wall_ms_p50"]
            traced["per_layer"]["bench.repeat_spread"] = (
                (max(p50["runs"]) - min(p50["runs"])) / p50["median"]
            )
            entry["per_layer"] = {
                metric: {
                    "value": value,
                    "unit": registry.PER_LAYER_BY_NAME[metric].unit,
                    "clock": registry.PER_LAYER_BY_NAME[metric].clock,
                }
                for metric, value in traced["per_layer"].items()
            }
            entry["trace"] = traced["trace"]
        result["workloads"][name] = entry
        _print_entry(name, entry)
    if quick:
        print("per-layer metrics (a traced run reports their values):")
        for metric in registry.PER_LAYER:
            print(_row(metric.name, None, metric.unit, metric.clock))
    path = OUT / f"result-seed{seed}{'-quick' if quick else ''}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def _print_entry(name: str, entry: dict) -> None:
    print(f"== {name}  samples={entry['samples']} "
          f"exact_repeats={entry['exact_repeats']}")
    for metric, cell in entry["end_to_end"].items():
        print(_row(metric, cell["median"], cell["unit"], cell["clock"],
                   f" q1={cell['q1']:.6g} q3={cell['q3']:.6g}"))
    for metric, cell in entry.get("per_layer", {}).items():
        print(_row(metric, cell["value"], cell["unit"], cell["clock"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the statements, draws the parameters")
    parser.add_argument("--data-seed", type=int, default=0,
                        help="generates the catalog (1 = held-out data)")
    parser.add_argument("--seconds", type=float,
                        help="measure whole passes for this long")
    parser.add_argument("--passes", type=int,
                        help="measure exactly this many passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record here")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced runs per workload")
    parser.add_argument("--quick", action="store_true",
                        help="suite: counts / 10, one repeat, no trace")
    parser.add_argument("--only", action="append", default=[],
                        help="suite: restrict to this workload (repeatable)")
    args = parser.parse_args(argv)
    _pin_hash_seed()
    import_s = _import_system()
    from workloads import WORKLOADS

    if args.workload is None:
        repeats = 1 if args.quick else args.repeats
        return run_suite(
            (args.seed, args.data_seed), repeats, args.quick, args.only
        )
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds is None and args.passes is None:
        parser.error("give --seconds or --passes")
    record = run_workload(
        args.workload, args.seed, args.seconds, args.passes,
        bool(args.trace), import_s, args.data_seed,
    )
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    if not args.quiet:
        print_record(record)
    if record["modelled_drift"] and WORKLOADS[args.workload].deterministic:
        print("FAIL: modelled totals differ between repeats of a statement",
              file=sys.stderr)
    print(driver_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
