"""One entry point per figure/table of the paper's evaluation.

Each function reproduces the corresponding experiment at micro scale
and returns structured data; the ``benchmarks/`` suite prints the same
series the paper plots and asserts the shape claims (who wins, by
roughly what factor, where the crossovers fall).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import (
    GPUDBPlus,
    MonetDBLike,
    NestGPUSystem,
    OmniSciLike,
    PostgresNested,
    PostgresUnnested,
)
from ..core import NestGPU, predict_nested
from ..core.costmodel import (
    aggregate_cost_ns,
    join_cost_ns,
    selection_cost_ns,
)
from ..engine import EngineOptions
from ..gpu import DeviceSpec
from ..plan.nodes import Aggregate, Join, Scan
from ..plan.selectivity import predicate_selectivity
from ..tpch import generate_tpch, queries
from .runner import Sweep, run_sweep

SCALE_FACTORS = (1.0, 5.0, 10.0, 15.0, 20.0)
MEMORY_SCALE_FACTORS = (20.0, 40.0, 60.0, 80.0, 100.0)

_ALL_SYSTEMS = [
    ("pgSQL(nested)", PostgresNested),
    ("pgSQL(unnested)", PostgresUnnested),
    ("MonetDB", MonetDBLike),
    ("OmniSci", OmniSciLike),
    ("GPUDB+", GPUDBPlus),
    ("NestGPU", NestGPUSystem),
]

# Figure 14 runs on the desktop GTX 1080; device memory is scaled by
# roughly the same ~1/100 factor as the data so the out-of-memory
# crossover lands at scale factor 80 as in the paper (DESIGN.md
# section 2): GPUDB+'s derived-table peak exceeds 78 MB at SF >= 80
# while NestGPU's nested execution stays below it through SF 100.
FIG14_DEVICE_BYTES = 78_000_000


def figure8_q2(scale_factors=SCALE_FACTORS) -> Sweep:
    """Figure 8: TPC-H Q2 across all six systems."""
    return run_sweep("Figure 8: TPC-H Q2", queries.TPCH_Q2, _ALL_SYSTEMS, scale_factors)


def figure9_q4(scale_factors=SCALE_FACTORS) -> Sweep:
    """Figure 9: TPC-H Q4.

    The paper excludes GPUDB+ here (its GROUP BY failed on Q4); we
    follow the same system list.
    """
    systems = [entry for entry in _ALL_SYSTEMS if entry[0] != "GPUDB+"]
    return run_sweep("Figure 9: TPC-H Q4", queries.TPCH_Q4, systems, scale_factors)


def figure10_q17(scale_factors=SCALE_FACTORS) -> Sweep:
    """Figure 10: TPC-H Q17 (large inner table)."""
    return run_sweep(
        "Figure 10: TPC-H Q17", queries.TPCH_Q17, _ALL_SYSTEMS, scale_factors
    )


def figure11_q5(scale_factors=SCALE_FACTORS) -> Sweep:
    """Figure 11: the non-unnestable Query 5 — only the nested systems
    can execute it at all."""
    systems = [
        ("pgSQL(nested)", PostgresNested),
        ("pgSQL(unnested)", PostgresUnnested),  # records 'cannot unnest'
        ("NestGPU", NestGPUSystem),
    ]
    return run_sweep(
        "Figure 11: Query 5 (cannot be unnested)",
        queries.PAPER_Q5,
        systems,
        scale_factors,
        tables=("part", "partsupp", "supplier", "nation", "region"),
    )


def figure12_small_outer(scale_factors=SCALE_FACTORS) -> Sweep:
    """Figure 12: Query 6 (small outer table): NestGPU vs GPUDB+."""
    systems = [("GPUDB+", GPUDBPlus), ("NestGPU", NestGPUSystem)]
    return run_sweep(
        "Figure 12: Query 6 (smaller outer table)",
        queries.PAPER_Q6,
        systems,
        scale_factors,
        tables=("part", "partsupp", "supplier", "nation", "region"),
    )


def figure13_indexing(scale_factors=MEMORY_SCALE_FACTORS) -> Sweep:
    """Figure 13: Query 7 (larger outer table), indexing on vs off.

    This experiment sweeps the upper micro-scale range: the win from
    replacing repeated inner-table scans with binary searches only
    materialises once the inner table exceeds the device's resident
    thread count (on dbgen-sized data — the paper's setting — that is
    true from scale factor 1).
    """

    def with_index(catalog):
        return NestGPUSystem(catalog, options=EngineOptions(index_min_iterations=2))

    def without_index(catalog):
        return NestGPUSystem(catalog, options=EngineOptions(use_index=False))

    systems = [("NestGPU", without_index), ("NestGPU Idx", with_index)]
    return run_sweep(
        "Figure 13: Query 7 (larger outer table, indexing)",
        queries.PAPER_Q7,
        systems,
        scale_factors,
        tables=("part", "partsupp", "supplier", "nation", "region"),
    )


def figure14_memory(scale_factors=MEMORY_SCALE_FACTORS) -> Sweep:
    """Figure 14: Query 8 (larger inner table) on the 8 GB GTX 1080.

    GPUDB+ runs out of device memory at the upper scale factors while
    NestGPU completes at every point.
    """
    device = DeviceSpec.gtx1080().with_memory(FIG14_DEVICE_BYTES)

    def gpudb(catalog):
        return GPUDBPlus(catalog, device=device)

    def nestgpu(catalog):
        return NestGPUSystem(catalog, device=device)

    systems = [("GPUDB+", gpudb), ("NestGPU", nestgpu)]
    return run_sweep(
        "Figure 14: Query 8 (larger inner table, 8 GB-class device)",
        queries.PAPER_Q8,
        systems,
        scale_factors,
        tables=("part", "partsupp", "supplier", "nation", "region"),
    )


# ---------------------------------------------------------------------------
# Figures 15-16: cost model verification
# ---------------------------------------------------------------------------


@dataclass
class OperatorVerification:
    """Real vs estimated time for one operator at one scale factor."""

    operator: str
    scale_factor: float
    real_ms: float
    estimated_ms: float

    @property
    def error(self) -> float:
        if self.real_ms == 0:
            return 0.0
        return abs(self.estimated_ms - self.real_ms) / self.real_ms


def figure15_operator_costs(
    scale_factors=(20.0, 40.0, 60.0, 80.0)
) -> list[OperatorVerification]:
    """Figure 15: Eq. (1)/(5) per-operator estimates vs measured times
    for the selection, join, and aggregation of Query 4.

    Cardinalities (the paper's ``Dr``) come from the optimizer's
    selectivity model, not from the run — so, exactly as in the paper,
    the error reflects how well filter selectivity and join cardinality
    are estimated (their reported bands: selection 0.49-17.75%, join
    4.03-17.48%, aggregation 0.15-7.66%).
    """
    out: list[OperatorVerification] = []
    for scale_factor in scale_factors:
        catalog = generate_tpch(
            scale_factor, tables=("part", "partsupp", "supplier", "nation", "region")
        )
        db = NestGPU(catalog, options=EngineOptions(use_vectorization=False))
        # Query 7 — the Query 4 family member whose outer block is large
        # enough for stable per-operator timings at micro scale
        prepared = db.prepare(queries.PAPER_Q7, mode="nested")
        result = db.run_prepared(prepared)
        spec = db.device_spec
        nodes = prepared.program.nodes

        # selection: the filtered part scan of the outer block
        scan_id, scan = next(
            (i, n) for i, n in enumerate(nodes)
            if isinstance(n, Scan) and n.table == "part" and n.filters
        )
        input_rows = catalog.table("part").num_rows
        selectivity = 1.0
        for predicate in scan.filters:
            selectivity *= predicate_selectivity(catalog, predicate, "part")
        est_output = max(1.0, input_rows * selectivity)
        row_bytes = sum(
            catalog.table("part").column(c).dtype.width for c in scan.columns
        )
        est = selection_cost_ns(
            spec, input_rows, len(scan.filters), est_output, row_bytes
        )
        out.append(OperatorVerification(
            "selection", scale_factor,
            result.node_times_ns.get(scan_id, 0.0) / 1e6, est / 1e6,
        ))

        # join: the first outer join above the part scan; matches
        # estimated through the FK heuristic (4 partsupp rows per part)
        join_id, join_node = next(
            (i, n) for i, n in enumerate(nodes) if isinstance(n, Join)
        )
        partsupp_rows = catalog.table("partsupp").num_rows
        est_matches = est_output * (partsupp_rows / catalog.table("part").num_rows)
        est = join_cost_ns(
            spec,
            build_rows=est_output,
            probe_rows=partsupp_rows,
            match_rows=est_matches,
            probe_row_bytes=16,
            build_row_bytes=row_bytes,
        )
        out.append(OperatorVerification(
            "join", scale_factor,
            result.node_times_ns.get(join_id, 0.0) / 1e6, est / 1e6,
        ))

        # aggregation: the subquery's min() across all iterations —
        # iteration count estimated as the distinct correlated keys of
        # the estimated join output, input per iteration from the
        # average partsupp fan-out surviving the EUROPE filter (1/5)
        agg_id, agg_node = next(
            (i, n) for i, n in enumerate(nodes) if isinstance(n, Aggregate)
        )
        # with caching on, the aggregate evaluates once per distinct
        # correlated key that reaches the SUBQ filter: a part survives
        # the outer join iff at least one of its 4 partsupp rows has a
        # European supplier (probability 1 - (1 - 1/5)^4)
        survive = 1.0 - (1.0 - 0.2) ** 4
        est_iterations = est_output * survive
        per_iter_rows = 4.0 * 0.2  # fan-out surviving the EUROPE filter
        est = est_iterations * aggregate_cost_ns(spec, per_iter_rows, 1)
        out.append(OperatorVerification(
            "aggregation", scale_factor,
            result.node_times_ns.get(agg_id, 0.0) / 1e6, est / 1e6,
        ))
    return out


@dataclass
class QueryVerification:
    """Whole-query prediction vs reality (Figure 16)."""

    scale_factor: float
    real_ms: float
    predicted_ms: float
    iterations: int
    cache_hits: int

    @property
    def error(self) -> float:
        if self.real_ms == 0:
            return 0.0
        return abs(self.predicted_ms - self.real_ms) / self.real_ms


def figure16_query_cost(scale_factors=SCALE_FACTORS) -> list[QueryVerification]:
    """Figure 16: Eq. (9) prediction vs measured time for Query 4."""
    out: list[QueryVerification] = []
    for scale_factor in scale_factors:
        catalog = generate_tpch(
            scale_factor, tables=("part", "partsupp", "supplier", "nation", "region")
        )
        db = NestGPU(catalog)
        prepared = db.prepare(queries.PAPER_Q4V, mode="nested")
        prediction = predict_nested(db, prepared)
        real = db.run_prepared(prepared)
        out.append(QueryVerification(
            scale_factor,
            real.total_ms,
            prediction.total_ms,
            prediction.iterations,
            prediction.cache_hits,
        ))
    return out
