#!/usr/bin/env python3
"""Compare two suite results: ``compare.py A.json B.json`` (A is the base).

One row per workload x end-to-end metric with both medians, both
quartile pairs, the ratio B / A and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile distance over
  median, either side) is wider than the bound, so nothing is claimed.

Wall metrics use the bounds of ``metrics.py``.  Modelled metrics,
``failed_share`` and every exact per-layer count compare bit-for-bit;
``net_loopback``, the only multi-threaded workload, may move its
modelled numbers by up to 1 % when interleaving differs, and the output
says so when it does.  Exit status is 1 on any ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as registry  # noqa: E402

THREADED_MODELLED_TOLERANCE = 0.01


def _worse_by(metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    change = (new - base) / base
    return change if metric.better == "lower" else -change


def end_to_end_verdict(metric, a: dict, b: dict, deterministic: bool) -> str:
    if metric.clock != "wall":
        # deterministic numbers: bit-for-bit
        if a["median"] == b["median"]:
            return "ok"
        worse = (b["median"] - a["median"]) * (
            1 if metric.better == "lower" else -1
        )
        if (not deterministic and a["median"] and abs(worse) / a["median"]
                <= THREADED_MODELLED_TOLERANCE):
            return "ok (interleaving moved it)"
        return "regressed" if worse > 0 else "ok (improved)"
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (a, b)
    )
    if spread > metric.bound:
        return "unresolved"
    worse = _worse_by(metric, a["median"], b["median"])
    return "regressed" if worse > metric.bound else "ok"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    regressed = 0
    print(f"{'workload':<15}{'metric':<23}{'A median':>12}{'A q1':>12}"
          f"{'A q3':>12}{'B median':>12}{'B q1':>12}{'B q3':>12}"
          f"{'B/A':>8}  verdict", file=out)
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<15}missing from B: regressed", file=out)
            regressed += 1
            continue
        deterministic = entry_a["deterministic"]
        for metric in registry.END_TO_END:
            cell_a = entry_a["end_to_end"][metric.name]
            cell_b = entry_b["end_to_end"][metric.name]
            verdict = end_to_end_verdict(metric, cell_a, cell_b, deterministic)
            regressed += verdict == "regressed"
            ratio = (
                f"{cell_b['median'] / cell_a['median']:>8.3f}"
                if cell_a["median"] else f"{'-':>8}"
            )
            print(
                f"{name:<15}{metric.name:<23}{cell_a['median']:>12.5g}"
                f"{cell_a['q1']:>12.5g}{cell_a['q3']:>12.5g}"
                f"{cell_b['median']:>12.5g}"
                f"{cell_b['q1']:>12.5g}{cell_b['q3']:>12.5g}"
                f"{ratio}  {verdict}",
                file=out,
            )

        # everything else that is deterministic: bit-for-bit, reported
        differs = []
        if entry_a["exact"] != entry_b["exact"]:
            differs.append("per-statement modelled totals / plan-cache counts")
        layers_a = entry_a.get("per_layer", {})
        layers_b = entry_b.get("per_layer", {})
        compared = [
            metric for metric, cell in layers_a.items()
            if cell["clock"] != "wall" and metric in layers_b
        ]
        for metric in compared:
            if layers_a[metric]["value"] != layers_b[metric]["value"]:
                differs.append(
                    f"{metric}: {layers_a[metric]['value']!r} -> "
                    f"{layers_b[metric]['value']!r}"
                )
        note = "" if deterministic else " (multi-threaded: may differ)"
        print(f"{name:<15}exact and modelled per-layer metrics: "
              f"{len(compared)} compared, {len(differs)} differ{note}",
              file=out)
        for line in differs:
            print(f"{'':<15}differs  {line}", file=out)
    return regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for key in ("seed", "data_seed", "sf", "passes"):
        if a["header"][key] != b["header"][key]:
            print(f"error: the two results differ in {key}: "
                  f"{a['header'][key]!r} vs {b['header'][key]!r}",
                  file=sys.stderr)
            return 2
    regressed = compare(a, b)
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
