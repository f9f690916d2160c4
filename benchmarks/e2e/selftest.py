#!/usr/bin/env python3
"""Checks on the benchmark itself (about a minute)::

    python3 benchmarks/e2e/selftest.py

1. the numpy reference agrees with ``RowstoreEngine`` — an engine that
   shares nothing with NestGPU's planner or runtime — on all three
   query families, at a scale and with parameters where the tuple-at-a-
   time oracle finishes in seconds and every family returns a row;
2. the harness reports failures when the reference is deliberately
   wrong;
3. ``BENCHMARK.json`` names exactly the workloads and metrics of
   ``workloads.py`` / ``metrics.py``;
4. a traced run writes a loadable Chrome trace whose spans nest, and on
   ``solo_cold`` the replayed stages plus ``prepare_unattributed_ms``
   add up to ``prepare_ms``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.baselines import RowstoreEngine  # noqa: E402
from repro.errors import CatalogError  # noqa: E402
from repro.fuzz.differential import canon_rows, rows_match  # noqa: E402
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch  # noqa: E402

import metrics as registry  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: part = 40 rows, partsupp = 160, lineitem ~ 240: the rowstore's nested
#: loops over a five-way join finish in about a second per outer row
ORACLE_SCALE = 0.02


def _oracle_rows(catalog, sql: str) -> list[tuple]:
    """Rowstore rows with string columns decoded (it returns raw codes)."""
    result = RowstoreEngine(catalog).execute(sql)
    dictionaries = []
    for name in result.column_names:
        try:
            table = catalog.table(catalog.resolve_column(name))
            dictionaries.append(table.column(name).dictionary)
        except CatalogError:  # a computed column such as avg_yearly
            dictionaries.append(None)
    return [
        tuple(
            value if dictionary is None else dictionary[int(value)]
            for value, dictionary in zip(row, dictionaries)
        )
        for row in result.rows
    ]


def _q2_sql(name: str, params: reference.Q2Params) -> str:
    """The paper statement ``name`` with its literals swapped for
    ``params`` (same line edits, other constants)."""
    paper = reference.PAPER_Q2_FAMILY[name]
    swaps = [
        (f"p_size = {paper.size}", f"p_size = {params.size}"),
        (f"'%{paper.type_suffix}'", f"'%{params.type_suffix}'"),
        (f"'{paper.region}'", f"'{params.region}'"),
    ]
    if paper.brand is not None:
        swaps.append((f"'{paper.brand}'", f"'{params.brand}'"))
    if paper.container_suffix is not None:
        swaps.append((f"'%{paper.container_suffix}'",
                      f"'%{params.container_suffix}'"))
    sql = ALL_EVALUATION_QUERIES[name]
    for old, new in swaps:
        assert old in sql, (name, old)
        sql = sql.replace(old, new)
    return sql


def _q2_candidates(catalog):
    """Parameter sets read off the data, one per part: its own size,
    type, brand and container, in the region of its cheapest supplier —
    so the ``=`` variants are certain to return that part."""
    part = catalog.table("part")
    partsupp = catalog.table("partsupp")
    supplier = catalog.table("supplier")
    nation = catalog.table("nation")
    region_names = dict(zip(
        catalog.table("region").column("r_regionkey").to_python(),
        catalog.table("region").column("r_name").to_python(),
    ))
    nation_region = dict(zip(
        nation.column("n_nationkey").to_python(),
        nation.column("n_regionkey").to_python(),
    ))
    supplier_nation = dict(zip(
        supplier.column("s_suppkey").to_python(),
        supplier.column("s_nationkey").to_python(),
    ))
    offers = sorted(zip(
        partsupp.column("ps_partkey").to_python(),
        partsupp.column("ps_supplycost").to_python(),
        partsupp.column("ps_suppkey").to_python(),
    ))
    cheapest = {}
    for partkey, _cost, suppkey in offers:
        cheapest.setdefault(partkey, suppkey)
    for partkey, size, p_type, brand, container in zip(
        part.column("p_partkey").to_python(),
        part.column("p_size").to_python(),
        part.column("p_type").to_python(),
        part.column("p_brand").to_python(),
        part.column("p_container").to_python(),
    ):
        nationkey = supplier_nation[cheapest[partkey]]
        yield dict(
            size=size, type_suffix=p_type.split()[-1], brand=brand,
            container_suffix=container.split()[-1],
            region=region_names[nation_region[nationkey]],
        )


def check_reference_against_oracle() -> None:
    catalog = generate_tpch(ORACLE_SCALE, seed=0)

    def agree(label, sql, expected):
        oracle = _oracle_rows(catalog, sql)
        assert len(expected) >= 1 and expected != [(math.nan,)], label
        assert rows_match(canon_rows(oracle), canon_rows(expected)), (
            f"{label}: reference {expected[:3]} != rowstore {oracle[:3]}"
        )
        print(f"  ok  {label}: {len(expected)} row(s) agree with the rowstore")

    # Q2 family: the first data-chosen constants under which all six
    # line edits return rows
    for constants in _q2_candidates(catalog):
        family = {}
        for name, paper in reference.PAPER_Q2_FAMILY.items():
            fields = {
                key: value for key, value in constants.items()
                if getattr(paper, key) is not None
            }
            family[name] = dataclasses.replace(paper, **fields)
        if all(reference.q2_family(catalog, p) for p in family.values()):
            break
    else:
        raise AssertionError("no constants make every Q2 edit return rows")
    for name, params in family.items():
        agree(name, _q2_sql(name, params),
              reference.q2_family(catalog, params))

    window = ("1993-01-01", "1995-01-01")
    sql = (ALL_EVALUATION_QUERIES["tpch_q4"]
           .replace("1993-07-01", window[0]).replace("1993-10-01", window[1]))
    agree("tpch_q4", sql, reference.q4(catalog, *window))

    q17 = reference.Q17(catalog)
    brand, container = next(
        pair for pair in q17.pairs() if not math.isnan(q17.rows(*pair)[0][0])
    )
    sql = (ALL_EVALUATION_QUERIES["tpch_q17"]
           .replace("Brand#23", brand).replace("MED BOX", container))
    agree("tpch_q17", sql, q17.rows(brand, container))


def check_wrong_reference_is_reported() -> None:
    def corrupt(expected: dict) -> None:
        expected["tpch_q4"] = expected["tpch_q4"][:-1] + [("5-LOW", -1.0)]

    record = run.run_workload(
        "session_warm", seed=0, seconds=None, passes=2, trace=False,
        import_s=0.0, corrupt_reference=corrupt,
    )
    share = record["failed"] / record["attempted"]
    assert share > 0 and not record["correct"], record
    print(f"  ok  a wrong reference row gives failed_share = {share:.3f}")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why, entry["name"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in registry.END_TO_END if m.bounded
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in registry.PER_LAYER if not m.suite_only
    ]
    assert spec["paths"] == ["benchmarks/e2e"]
    print("  ok  BENCHMARK.json matches workloads.py and metrics.py")


def check_trace() -> None:
    record = run.run_workload(
        "solo_cold", seed=0, seconds=None, passes=2, trace=True, import_s=0.0,
    )
    assert record["correct"] and record["trace"]["nesting_violations"] == 0
    trace = json.loads((run.OUT / record["trace"]["file"]).read_text())
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    by_span = {e["args"]["span"]: e for e in events}
    replay_roots = {
        e["args"]["span"] for e in events if e["name"] == "bench:replay"
    }
    for event in events:
        parent = by_span.get(event["args"]["parent"])
        if parent is not None:
            assert parent["ts"] <= event["ts"], event
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-3), event
    stages = sum(
        e["dur"] for e in events
        if e["args"]["query_id"] in replay_roots and ":stage." in e["name"]
    )
    prepare = sum(
        e["dur"] for e in events
        if e["name"] == "core.executor:prepare"
        and e["args"]["query_id"] not in replay_roots
    )
    unattributed = (
        record["per_layer"]["core.executor.prepare_unattributed_ms"]
        * 1e3 * len(replay_roots)
    )
    assert abs(stages + unattributed - prepare) <= 0.05 * prepare, (
        stages, unattributed, prepare,
    )
    print(f"  ok  {len(events)} spans nest; stages + unattributed = prepare "
          f"({(stages + unattributed) / prepare:.4f})")


def main() -> int:
    for check in (check_benchmark_json, check_reference_against_oracle,
                  check_wrong_reference_is_reported, check_trace):
        print(check.__name__)
        check()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
