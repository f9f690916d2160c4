"""TPC-H substrate: micro-scale data generator and paper query texts."""

from .generator import generate_tpch
from .queries import (
    ALL_EVALUATION_QUERIES,
    PAPER_Q1,
    PAPER_Q2_UNNESTED,
    PAPER_Q3,
    PAPER_Q4V,
    PAPER_Q5,
    PAPER_Q6,
    PAPER_Q7,
    PAPER_Q8,
    TPCH_Q2,
    TPCH_Q4,
    TPCH_Q17,
)
from .schema import BASE_ROWS, DBGEN_ROWS, TABLE_SPECS, rows_at_scale

__all__ = [
    "ALL_EVALUATION_QUERIES",
    "BASE_ROWS",
    "DBGEN_ROWS",
    "PAPER_Q1",
    "PAPER_Q2_UNNESTED",
    "PAPER_Q3",
    "PAPER_Q4V",
    "PAPER_Q5",
    "PAPER_Q6",
    "PAPER_Q7",
    "PAPER_Q8",
    "TABLE_SPECS",
    "TPCH_Q17",
    "TPCH_Q2",
    "TPCH_Q4",
    "generate_tpch",
    "rows_at_scale",
]
