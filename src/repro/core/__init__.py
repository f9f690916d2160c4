"""NestGPU core: code generation, nested execution, cost model."""

from .caching import SubqueryCache
from .codegen import CodeGenerator, DriveProgram, generate_drive_program
from .costmodel import (
    NestedPrediction,
    aggregate_cost_ns,
    estimate_flat_plan_ns,
    join_cost_ns,
    predict_nested,
    selection_cost_ns,
    sort_cost_ns,
)
from .executor import NestGPU, PreparedQuery, QueryResult
from .fusion import (
    FUSION_OFF,
    FusionDecision,
    FusionPlan,
    FusionTuner,
    plan_fingerprint,
)
from .indexing import CorrelatedIndex, index_pays_off
from .runtime import Runtime, SubqueryProgram
from .sharded import ShardedEngine
from .subquery import (
    ExistsResultVector,
    ScalarResultVector,
    TwoLevelResultVector,
)

__all__ = [
    "CodeGenerator",
    "CorrelatedIndex",
    "DriveProgram",
    "ExistsResultVector",
    "FUSION_OFF",
    "FusionDecision",
    "FusionPlan",
    "FusionTuner",
    "NestGPU",
    "NestedPrediction",
    "PreparedQuery",
    "QueryResult",
    "Runtime",
    "ScalarResultVector",
    "ShardedEngine",
    "SubqueryCache",
    "SubqueryProgram",
    "TwoLevelResultVector",
    "aggregate_cost_ns",
    "estimate_flat_plan_ns",
    "generate_drive_program",
    "index_pays_off",
    "join_cost_ns",
    "plan_fingerprint",
    "predict_nested",
    "selection_cost_ns",
    "sort_cost_ns",
]
