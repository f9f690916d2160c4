"""Rendering of benchmark sweeps as the paper's figure tables."""

from __future__ import annotations

from .runner import Sweep


def format_sweep(sweep: Sweep) -> str:
    """An aligned text table: rows = systems, columns = scale factors."""
    scale_factors = sweep.scale_factors()
    header = ["system".ljust(18)] + [
        f"SF {sf:g}".rjust(12) for sf in scale_factors
    ]
    lines = [sweep.title, "-" * len(sweep.title), "  ".join(header)]
    for system in sweep.systems():
        cells = [system.ljust(18)]
        for sf in scale_factors:
            try:
                m = sweep.cell(system, sf)
            except KeyError:
                cells.append("-".rjust(12))
                continue
            if m.time_ms is None:
                cells.append(m.note[:12].rjust(12))
            else:
                cells.append(f"{m.time_ms:10.2f}ms".rjust(12))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def speedup(sweep: Sweep, fast: str, slow: str, scale_factor: float) -> float:
    """How many times faster ``fast`` is than ``slow`` at one point."""
    numerator = sweep.cell(slow, scale_factor).time_ms
    denominator = sweep.cell(fast, scale_factor).time_ms
    if numerator is None or denominator is None:
        raise ValueError("both series must have run at this scale factor")
    return numerator / denominator
