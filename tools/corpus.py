"""The fuzz corpus, walked once: one record per (statement, leg, mode).

The corpus is the 8 paper queries and the first ``COUNT`` fuzz
statements of ``SEED`` at the fuzz scale.  Every statement runs on a
fresh engine in each leg of ``LEGS``:

* solo, nested mode: the default options, vectorisation off, and
  ``fusion="auto"`` with vectorisation on and off; solo, unnested mode
  with the default options.  A solo record is the error class, or the
  observation ``tests/test_kernel_identity.py`` takes of the cold run:
  row digest and count, ``total_ns`` (JSON writes a float by its
  ``repr``, and it is compared exactly), launch count, launches by
  tag, peak device bytes and the digest of every ``(tag, elements,
  work)`` launched, the cost model's probes inside ``prepare``
  included.  ``QueryResult.subquery_paths`` is kept beside the record,
  not in it, so a change may move a SUBQ's path without moving the
  clock.
* sharded, nested and unnested mode: ``fuzz.differential.SHARD_LEGS``
  over NVLink.  A sharded record is the error class, or — for a cold
  and a warm run of one prepared query — the group report's strategy,
  decision, exchanges and pair bytes, ``repr`` of ``total_ns`` and
  ``makespan_ns``, a row digest, and a digest of the EXPLAIN text.

``tests/data/corpus_identity.jsonl`` pins every record.  It is written
by running this file as a script on the commit before a change, under
``PYTHONHASHSEED=0`` (the records do not depend on it), and is never
regenerated by a change that claims identity.

``--census`` counts the SUBQ paths of the four nested solo legs over
the fuzz statements alone; ``--check-replay`` runs every statement
that replayed a SUBQ twice more on its warm engine, replayed and with
the loop forced (``replay.refusal`` patched), and exits 1 where rows,
``total_ns``, the launches, memory, a per-node booking or a loop
counter differ.  A statement none of whose SUBQs replayed is not
re-run: the forced run would take the same loop by construction.

Usage, from the repository root::

    python tools/corpus.py > tests/data/corpus_identity.jsonl  # write the pin
    python tools/corpus.py --check                  # every record vs the pin
    python tools/corpus.py --census                 # seed 7 x 500
    python tools/corpus.py --census --save after.json
    python tools/corpus.py --census --compare before.json  # before/after
    python tools/corpus.py --census --seed 11 --count 500 --check-replay
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core import NestGPU, ShardedEngine, replay  # noqa: E402
from repro.engine import EngineOptions  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.fuzz.differential import SHARD_LEGS  # noqa: E402
from repro.fuzz.generator import generate_query  # noqa: E402
from repro.fuzz.runner import DEFAULT_SCALE  # noqa: E402
from repro.gpu import Device  # noqa: E402
from repro.gpu.spec import InterconnectSpec  # noqa: E402
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch  # noqa: E402

PIN = ROOT / "tests" / "data" / "corpus_identity.jsonl"
SEED, COUNT = 7, 500
SOLO_OPTIONS = {
    "default": {},
    "novec": {"use_vectorization": False},
    "auto": {"fusion": "auto"},
    "auto-novec": {"fusion": "auto", "use_vectorization": False},
}
#: ``<options or sharded leg>/<mode>``, in the pin's order
LEGS = (
    "default/nested", "novec/nested", "auto/nested", "auto-novec/nested",
    "default/unnested",
    *(f"{leg}/{mode}" for leg in SHARD_LEGS for mode in ("nested", "unnested")),
)
#: the census's leg names, as ``--save`` writes them
CENSUS_LEGS = {
    "vectorisation off": "novec/nested",
    "default": "default/nested",
    'fusion="auto", vectorisation off': "auto-novec/nested",
    'fusion="auto"': "auto/nested",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the observer -------------------------------------------------------------

def observe(run, forced_loop: bool = False) -> tuple:
    """``run()`` with every ``Device.launch`` recorded as ``(tag,
    elements, work)``; with ``forced_loop`` the replay refuses every
    SUBQ.  Returns the result, or the ``ReproError`` raised, and the
    launches."""
    launches: list = []
    charge, refusal = Device.launch, replay.refusal

    def recording_launch(self, tag, elements, work=1.0):
        launches.append((tag, int(elements), float(work)))
        return charge(self, tag, elements, work)

    Device.launch = recording_launch
    if forced_loop:
        replay.refusal = lambda sp: "forced"
    try:
        return run(), launches
    except ReproError as exc:  # an unnester refusal is part of the record
        return exc, launches
    finally:
        Device.launch, replay.refusal = charge, refusal


def record(outcome: tuple) -> dict:
    """The pinned form of one observed run."""
    result, launches = outcome
    if isinstance(result, ReproError):
        return {"error": type(result).__name__}
    stats = result.stats
    return {
        "rows": _digest(repr(result.rows)),
        "row_count": len(result.rows),
        "total_ns": stats.total_ns,
        "kernel_launches": stats.kernel_launches,
        "launches_by_tag": dict(sorted(stats.launches_by_tag.items())),
        "peak_device_bytes": stats.peak_device_bytes,
        "launch_sequence": _digest(repr(launches)),
    }


def replay_view(outcome: tuple) -> dict:
    """Everything a replayed SUBQ loop must reproduce of the loop."""
    result, launches = outcome
    if isinstance(result, ReproError):
        return {"error": type(result).__name__}
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


# -- the walk -----------------------------------------------------------------

@dataclass
class Run:
    name: str  # the statement's
    leg: str
    record: dict
    paths: dict  # ``subquery_paths``; empty for an error or a sharded run
    engine: object
    sql: str

    @property
    def key(self) -> str:
        return f"{self.name}/{self.leg}"


def statements(catalog, seed: int = SEED, count: int = COUNT,
               paper: bool = True) -> list[tuple[str, str]]:
    """``(name, sql)``: the paper queries, then the fuzz statements."""
    fuzz = [(f"seed{seed}-{index}", generate_query(catalog, seed, index).sql)
            for index in range(count)]
    return (sorted(ALL_EVALUATION_QUERIES.items()) if paper else []) + fuzz


def walk(catalog, corpus: list, legs=LEGS, first: dict | None = None):
    """Yield one :class:`Run` per statement x leg, in pin order.
    ``first`` limits a leg to the first statements of ``corpus``."""
    for position, (name, sql) in enumerate(corpus):
        for leg in legs:
            if position < (first or {}).get(leg, len(corpus)):
                yield _run(catalog, name, sql, leg)


def _run(catalog, name: str, sql: str, leg: str) -> Run:
    config, mode = leg.split("/")
    if config in SHARD_LEGS:
        engine = ShardedEngine(catalog, shards=SHARD_LEGS[config],
                               interconnect=InterconnectSpec.nvlink())
        return Run(name, leg, _sharded_record(engine, sql, mode), {}, engine, sql)
    options = EngineOptions(**SOLO_OPTIONS[config])
    engine = NestGPU(catalog, options=options, mode=mode)
    outcome = observe(lambda: engine.execute(sql))
    paths = getattr(outcome[0], "subquery_paths", {})
    return Run(name, leg, record(outcome), paths, engine, sql)


def _sharded_record(engine: ShardedEngine, sql: str, mode: str) -> dict:
    def run(prepared) -> dict:
        result = engine.run_prepared(prepared)
        report = result.group_report
        return {
            "strategy": report["strategy"],
            "decision": report["decision"],
            "exchanges": report["exchanges"],
            "pair_bytes": report["pair_bytes"],
            "total_ns": repr(result.stats.total_ns),
            "makespan_ns": repr(result.makespan_ns),
            "rows": _digest(repr(result.rows)),
        }

    try:
        prepared = engine.prepare(sql, mode)
        seen = {"cold": run(prepared), "warm": run(prepared)}
        seen["explain"] = _digest(engine.explain_prepared(prepared))
    except ReproError as exc:
        return {"error": type(exc).__name__}
    # the JSON form, so tuples compare equal to the pin's lists
    return json.loads(json.dumps(seen))


def replay_differs(run: Run) -> list[str]:
    """The fields in which a warm replayed run of ``run``'s statement
    differs from a warm run of the same prepared query with the loop
    forced; ``[]`` without a replayed SUBQ, where the forced run takes
    the same loop.  The path is chosen per run, so both runs share one
    ``prepare``."""
    if "replayed" not in run.paths.values():
        return []
    prepared = run.engine.prepare(run.sql)
    replayed, looped = (
        replay_view(observe(lambda: run.engine.run_prepared(prepared), forced))
        for forced in (False, True)
    )
    return [field for field in replayed if replayed[field] != looped.get(field)]


# -- the pin ------------------------------------------------------------------

def load_pin(path: Path = PIN, fields: tuple = ("case",)) -> dict:
    """A jsonl pin's records, keyed by the tuple of their ``fields``."""
    pinned = {}
    for line in Path(path).read_text().splitlines():
        entry = json.loads(line)
        pinned[tuple(entry.pop(field) for field in fields)] = entry
    return pinned


def moved(observed: dict, pinned: dict, rel: float = 0.0) -> dict:
    """``key -> (observed, pinned)`` for every key of either side whose
    records differ; ``total_ns`` within ``rel`` counts as equal."""
    return {
        key: (observed.get(key), pinned.get(key))
        for key in sorted(observed.keys() | pinned.keys())
        if not _same(observed.get(key), pinned.get(key), rel)
    }


def _same(seen, pinned, rel: float) -> bool:
    if not (rel and seen and pinned):
        return seen == pinned
    seen, pinned = dict(seen), dict(pinned)
    total, pinned_total = seen.pop("total_ns", 0), pinned.pop("total_ns", 0)
    return seen == pinned and math.isclose(total, pinned_total, rel_tol=rel)


def pin_main(check: bool, path: Path, fields: tuple, observed,
             rel: float = 0.0) -> int:
    """Print ``observed``'s ``(key, record)`` pairs as a jsonl pin, or
    with ``check`` compare them with ``path`` and print what moved."""
    if not check:
        for key, seen in observed:
            print(json.dumps({**dict(zip(fields, key)), **seen}, sort_keys=True))
        return 0
    found = moved(dict(observed), load_pin(path, fields), rel)
    for key, (seen, pinned) in found.items():
        print(f"{'/'.join(key)}: observed {seen} pinned {pinned}")
    print(f"{len(found)} records moved")
    return 1 if found else 0


# -- the census ---------------------------------------------------------------

def census(catalog, seed: int, count: int, check_replay: bool) -> dict:
    """Path counts per census leg; raises SystemExit on a replay mismatch."""
    legs = {label: {"paths": Counter(), "statements_with_loop": 0, "errors": 0}
            for label in CENSUS_LEGS}
    label_of = {leg: label for label, leg in CENSUS_LEGS.items()}
    corpus = statements(catalog, seed, count, paper=False)
    for run in walk(catalog, corpus, legs=CENSUS_LEGS.values()):
        found = legs[label_of[run.leg]]
        if "error" in run.record:
            found["errors"] += 1
            continue
        found["paths"].update(run.paths.values())
        found["statements_with_loop"] += any(
            path.startswith("loop:") for path in run.paths.values())
        differs = check_replay and replay_differs(run)
        if differs:
            print(f"replay differs from the loop on {', '.join(differs)} "
                  f"({run.key}, seed {seed}):\n{run.sql}")
            raise SystemExit(1)
    for found in legs.values():
        found["paths"] = dict(sorted(found["paths"].items()))
    return legs


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
    parser.add_argument("--check", action="store_true",
                        help="compare every record with the pin; exit 1 "
                             "if one moved")
    parser.add_argument("--census", action="store_true",
                        help="count the SUBQ paths of the census legs")
    parser.add_argument("--seed", type=int, default=SEED, help="census seed")
    parser.add_argument("--count", type=int, default=COUNT,
                        help="census statements")
    parser.add_argument("--save", metavar="JSON", help="write the counts")
    parser.add_argument("--compare", metavar="JSON",
                        help="a --save file to print a before/after table against")
    parser.add_argument("--check-replay", action="store_true",
                        help="also compare each replayed statement with the "
                             "forced loop; exit 1 on a difference")
    args = parser.parse_args(argv)

    catalog = generate_tpch(DEFAULT_SCALE)
    if not args.census:
        runs = walk(catalog, statements(catalog))
        return pin_main(args.check, PIN, ("case",),
                        (((run.key,), run.record) for run in runs))
    legs = census(catalog, args.seed, args.count, args.check_replay)
    before = json.loads(Path(args.compare).read_text()) if args.compare else None
    print(f"seed {args.seed} x {args.count}, scale {DEFAULT_SCALE}, nested mode")
    print(render(legs, before))
    if args.save:
        Path(args.save).write_text(json.dumps(legs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
