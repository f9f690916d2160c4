"""Bit-identity of the sharded planner against the commit that pinned it.

``tests/data/shard_identity.jsonl`` holds one record per (statement,
leg, mode): the two NVLink legs of ``fuzz.differential.SHARD_LEGS``,
nested and unnested mode, over the 8 paper queries and the first 500
fuzz statements of seed 7 at the fuzz scale.  A record is the error
class, or — for a cold run and a warm second run of one prepared query
on one fresh engine — the group report's strategy, decision, exchanges
and pair bytes, ``repr`` of ``total_ns`` and ``makespan_ns``, a row
digest, and a digest of the EXPLAIN text.  It was written once by
running this file as a script on the commit before the placement
record replaced ``ShardedPrepared``::

    PYTHONPATH=src python tests/test_shard_identity.py > tests/data/shard_identity.jsonl

and is never regenerated by a change that claims identity.  The
records did not move between ``PYTHONHASHSEED`` 0 and 1.  Tier-1
checks the paper queries and the first 100 fuzz statements; every
record is checked by::

    PYTHONPATH=src python tests/test_shard_identity.py --check
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.core import ShardedEngine
from repro.errors import ReproError
from repro.fuzz.differential import SHARD_LEGS
from repro.fuzz.generator import generate_query
from repro.fuzz.runner import DEFAULT_SCALE
from repro.gpu.spec import InterconnectSpec
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch

FIXTURE = Path(__file__).parent / "data" / "shard_identity.jsonl"
MODES = ("nested", "unnested")
SEED, COUNT, TIER1_COUNT = 7, 500, 100


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(engine: ShardedEngine, prepared) -> dict:
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


def observe(catalog, sql: str, width: int, mode: str) -> dict:
    """Cold and warm run of one prepared query on a fresh group."""
    engine = ShardedEngine(
        catalog, shards=width, interconnect=InterconnectSpec.nvlink()
    )
    try:
        prepared = engine.prepare(sql, mode)
        seen = {"cold": _run(engine, prepared), "warm": _run(engine, prepared)}
        seen["explain"] = _digest(engine.explain(sql, mode))
    except ReproError as exc:  # an unnester refusal is part of the pin
        return {"error": type(exc).__name__}
    # the JSON form, so tuples compare equal to the fixture's lists
    return json.loads(json.dumps(seen))


def statements(count: int, catalog) -> list[tuple[str, str]]:
    paper = sorted(ALL_EVALUATION_QUERIES.items())
    fuzz = [
        (f"seed{SEED}-{index}", generate_query(catalog, SEED, index).sql)
        for index in range(count)
    ]
    return paper + fuzz


def observe_all(count: int):
    """Yield ``(key, record)`` per statement x leg x mode."""
    catalog = generate_tpch(DEFAULT_SCALE)
    for name, sql in statements(count, catalog):
        for leg, width in SHARD_LEGS.items():
            for mode in MODES:
                yield f"{name}/{leg}/{mode}", observe(catalog, sql, width, mode)


def _pinned() -> dict:
    records = map(json.loads, FIXTURE.read_text().splitlines())
    return {record.pop("case"): record for record in records}


def _moved(count: int) -> dict:
    pinned = _pinned()
    return {
        key: (seen, pinned.get(key))
        for key, seen in observe_all(count)
        if seen != pinned.get(key)
    }


def test_paper_and_fuzz_prefix_match_the_pin():
    assert not _moved(TIER1_COUNT)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        moved = _moved(COUNT)
        for key, (seen, pinned) in sorted(moved.items()):
            print(f"{key}: observed {seen} pinned {pinned}")
        print(f"{len(moved)} records moved")
        sys.exit(1 if moved else 0)
    for key, seen in observe_all(COUNT):
        print(json.dumps({"case": key, **seen}, sort_keys=True))
