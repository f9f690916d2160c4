"""Benchmark harness: sweeps, reporting, and per-figure entry points."""

from .figures import (
    FIG14_DEVICE_BYTES,
    MEMORY_SCALE_FACTORS,
    SCALE_FACTORS,
    OperatorVerification,
    QueryVerification,
    figure8_q2,
    figure9_q4,
    figure10_q17,
    figure11_q5,
    figure12_small_outer,
    figure13_indexing,
    figure14_memory,
    figure15_operator_costs,
    figure16_query_cost,
)
from .report import (
    format_sweep,
    speedup,
)
from .runner import (
    Measurement,
    Sweep,
    run_sweep,
)

__all__ = [
    "FIG14_DEVICE_BYTES",
    "MEMORY_SCALE_FACTORS",
    "Measurement",
    "OperatorVerification",
    "QueryVerification",
    "SCALE_FACTORS",
    "Sweep",
    "figure10_q17",
    "figure11_q5",
    "figure12_small_outer",
    "figure13_indexing",
    "figure14_memory",
    "figure15_operator_costs",
    "figure16_query_cost",
    "figure8_q2",
    "figure9_q4",
    "format_sweep",
    "run_sweep",
    "speedup",
]
