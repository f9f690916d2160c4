"""Which path does every SUBQ of the fuzz corpus take?

Runs ``--count`` fuzz statements of ``--seed`` at the fuzz scale in
nested mode, one fresh engine per statement, in two legs: vectorisation
off (where the loop or its replay runs) and the default options (where
the vectorised path runs).  Counts the values of
``QueryResult.subquery_paths`` per leg and the statements that keep at
least one ``loop:`` SUBQ.  A statement the engine refuses (for example
an unnester refusal) counts as an error, not as a path.

``--check-replay`` runs every statement of both legs a
second and a third time in the same engine: replayed, and with the loop
forced (``replay.refusal`` patched, as ``tests/test_replay.py`` does).
Rows, ``total_ns``, the launch sequence and launches by tag, memory,
every per-node booking and every loop counter must be equal; the tool
exits 1 on the first statement where they are not.  Only numpy and the
standard library are used besides ``repro``.

Usage, from the repository root::

    python tools/path_census.py                        # seed 7 x 500
    python tools/path_census.py --save after.json
    python tools/path_census.py --compare before.json  # before/after table
    python tools/path_census.py --seed 11 --count 500 --check-replay
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import NestGPU, replay  # noqa: E402
from repro.engine import EngineOptions  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.fuzz.generator import generate_query  # noqa: E402
from repro.fuzz.runner import DEFAULT_SCALE  # noqa: E402
from repro.gpu import Device  # noqa: E402
from repro.tpch import generate_tpch  # noqa: E402

LEGS = {
    "vectorisation off": {"use_vectorization": False},
    "default": {},
}


def observe(engine, sql: str, forced_loop: bool) -> dict:
    """Everything the replay must reproduce of the loop, for one run."""
    launches: list = []
    charge, refusal = Device.launch, replay.refusal

    def recording_launch(self, tag, elements, work=1.0):
        launches.append((tag, int(elements), float(work)))
        return charge(self, tag, elements, work)

    Device.launch = recording_launch
    if forced_loop:
        replay.refusal = lambda sp: "forced"
    try:
        result = engine.execute(sql)
    finally:
        Device.launch, replay.refusal = charge, refusal
    stats = result.stats
    return {
        "rows": repr(result.rows),  # NaN (NULL) never equals itself
        "total_ns": stats.total_ns,
        "launches": launches,
        "launches_by_tag": stats.launches_by_tag,
        "peak_device_bytes": stats.peak_device_bytes,
        "malloc_calls": stats.malloc_calls,
        "node_times_ns": result.node_times_ns,
        "node_calls": result.node_calls,
        "node_launches": result.node_launches,
        "node_output_rows": result.node_output_rows,
        "subquery_iterations": result.subquery_iterations,
        "subquery_cache": result.subquery_cache,
        "index_probes": result.index_probes,
        "pool_restores": result.pool_restores,
        "adaptive_switch": result.adaptive_switch,
        "abandoned_ms": result.abandoned_ms,
    }


def census(catalog, seed: int, count: int, options: dict,
           check_replay: bool) -> dict:
    """Path counts of one leg; raises SystemExit on a replay mismatch."""
    paths: Counter = Counter()
    looping = errors = 0
    for index in range(count):
        sql = generate_query(catalog, seed, index).sql
        engine = NestGPU(catalog, options=EngineOptions(**options), mode="nested")
        try:
            result = engine.execute(sql)
        except ReproError:
            errors += 1
            continue
        values = list(result.subquery_paths.values())
        paths.update(values)
        looping += any(path.startswith("loop:") for path in values)
        if check_replay:
            replayed = observe(engine, sql, False)
            looped = observe(engine, sql, True)
            if replayed != looped:
                fields = [k for k in replayed if replayed[k] != looped[k]]
                print(f"replay differs from the loop on {', '.join(fields)} "
                      f"(seed {seed}, statement {index}):\n{sql}")
                raise SystemExit(1)
    return {"paths": dict(sorted(paths.items())), "statements_with_loop": looping,
            "errors": errors}


def render(legs: dict, before: dict | None) -> str:
    lines = []
    for leg, found in legs.items():
        lines.append(f"{leg}:")
        now = _rows(found)
        then = _rows(before[leg]) if before and leg in before else None
        for name in sorted(set(now) | set(then or ()), key=_order):
            old = "" if then is None else f"{then.get(name, 0):5d} -> "
            lines.append(f"  {old}{now.get(name, 0):5d}  {name}")
    return "\n".join(lines)


def _rows(found: dict) -> dict:
    return {**found["paths"], "statements with a loop":
            found["statements_with_loop"], "errors": found["errors"]}


def _order(name: str) -> tuple:
    return (name in ("statements with a loop", "errors"),
            name.startswith("loop:"), name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--save", metavar="JSON", help="write the counts")
    parser.add_argument("--compare", metavar="JSON",
                        help="a --save file to print a before/after table against")
    parser.add_argument("--check-replay", action="store_true",
                        help="also compare each replayed statement with the "
                             "forced loop; exit 1 on a difference")
    args = parser.parse_args(argv)

    catalog = generate_tpch(DEFAULT_SCALE)
    legs = {
        leg: census(catalog, args.seed, args.count, options,
                    args.check_replay)
        for leg, options in LEGS.items()
    }
    before = json.loads(Path(args.compare).read_text()) if args.compare else None
    print(f"seed {args.seed} x {args.count}, scale {DEFAULT_SCALE}, nested mode")
    print(render(legs, before))
    if args.save:
        Path(args.save).write_text(json.dumps(legs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
