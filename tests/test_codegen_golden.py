"""Golden-text snapshots of the generated drive programs.

One snapshot per paper evaluation query, with fusion off and on.  The
drive program is the codegen layer's entire output contract; pinning
its text catches silent emission drift — in particular, the fusion-off
programs must stay byte-identical to the pre-fusion generator.

Regenerate after an intentional codegen change with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_codegen_golden.py
"""

import os
import pathlib

import pytest

from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.tpch import ALL_EVALUATION_QUERIES

SNAPSHOT_DIR = pathlib.Path(__file__).parent / "snapshots" / "codegen"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


def _snapshot_path(query: str, fusion: str) -> pathlib.Path:
    return SNAPSHOT_DIR / f"{query}__fusion-{fusion}.txt"


def _drive_source(catalog, query: str, fusion: str) -> str:
    engine = NestGPU(catalog, options=EngineOptions(fusion=fusion))
    return engine.drive_source(ALL_EVALUATION_QUERIES[query])


@pytest.mark.parametrize("fusion", ["off", "on"])
@pytest.mark.parametrize("query", sorted(ALL_EVALUATION_QUERIES))
def test_drive_program_matches_snapshot(tpch_small, query, fusion):
    source = _drive_source(tpch_small, query, fusion)
    path = _snapshot_path(query, fusion)
    if REGEN:
        SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return
    assert path.exists(), (
        f"missing snapshot {path.name}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert source == path.read_text(), (
        f"drive program for {query} (fusion={fusion}) drifted from its "
        f"snapshot; if intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )
    # programs compile lazily, on first run: a syntax error in generated
    # source must still surface here, without running the query
    compile(path.read_text(), path.name, "exec")


@pytest.mark.parametrize("query", sorted(ALL_EVALUATION_QUERIES))
def test_fused_program_differs_only_by_fused_entry_points(tpch_small, query):
    """The fused program is the unfused program with fused entry points
    swapped in (plus the header marker) — never a different shape."""
    off = _drive_source(tpch_small, query, "off")
    on = _drive_source(tpch_small, query, "on")
    assert on != off
    assert "# fusion: on" in on and "# fusion" not in off
    # strip the marker and normalise the fused entry points back to
    # their unfused twins: the program shapes must coincide
    normalised = []
    for line in on.splitlines():
        if line.strip().startswith("# fusion:"):
            continue
        normalised.append(
            line.replace("rt.t_f_scan", "rt.t_scan")
                .replace("rt.f_scan", "rt.scan")
                .replace("rt.t_f_filter", "rt.t_filter")
                .replace("rt.f_filter", "rt.filter")
                .replace(
                    "rt.f_apply_subquery_predicate",
                    "rt.apply_subquery_predicate",
                )
        )
    assert "\n".join(normalised) == off.strip("\n")
