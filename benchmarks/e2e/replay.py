"""The compile pipeline replayed by hand, one stage at a time.

``NestGPU.prepare`` is one call from outside, so its inside is measured
here by running each stage *once* through the stage's public entry
point — parse, bind, nested build, unnest, codegen, fusion tuning, path
prediction — on a twin engine that has seen the same statements in the
same order as the engine that served the query (so the selectivity and
tuner caches are equally warm).  What a whole ``prepare`` costs beyond
the sum of these stages is ``core.executor.prepare_unattributed_ms``:
the redundancy a one-compile-pipeline refactor would remove.
"""

from __future__ import annotations

from repro.core import (
    FusionPlan,
    NestGPU,
    PreparedQuery,
    generate_drive_program,
    plan_fingerprint,
)
from repro.core.costmodel import predict_paths
from repro.errors import UnnestingError
from repro.plan import (
    Binder,
    PlanBuilder,
    prune_scan_columns,
    try_exists_semijoin,
)
from repro.sql import parse


def _codegen(recorder, twin: NestGPU, builder, plan, block, choice):
    """Codegen + fusion decision for one candidate path."""
    with recorder.span("stage.codegen", "core.codegen"):
        program = generate_drive_program(builder, plan)
        fusion = FusionPlan()
        fused = None
        if twin.options.fusion != "off":
            fused = generate_drive_program(builder, plan, fusion=fusion)
    prepared = PreparedQuery(block, plan, program, choice)
    if fused is None or not fusion.sites:
        return prepared
    candidates = {False: prepared, True: PreparedQuery(block, plan, fused, choice)}

    def measure(use_fused: bool) -> float:
        result = twin.run_prepared(candidates[use_fused], observed=False)
        return result.stats.total_ns

    with recorder.span("stage.tuner", "core.fusion"):
        decision = twin.fusion_tuner.decide(
            plan_fingerprint(plan), twin.coefficients.version,
            len(fusion.sites), lambda: measure(False), lambda: measure(True),
        )
    return candidates[decision.fused]


def replay_compile(recorder, twin: NestGPU, sql: str) -> None:
    """Open one ``replay`` root span holding a span per compile stage."""
    catalog = twin.catalog
    with recorder.span("replay", "bench"):
        with recorder.span("stage.parse", "sql"):
            statement = parse(sql)
        with recorder.span("stage.bind", "plan"):
            block = Binder(catalog).bind(statement)
        correlated = any(
            descriptor.is_correlated
            for blk in block.all_blocks()
            for descriptor in blk.subqueries
        )
        with recorder.span("stage.build", "plan"):
            builder = PlanBuilder(catalog, exact_selectivity=twin.selectivity)
            plan = try_exists_semijoin(builder.build(block), block)
            prune_scan_columns(plan, catalog)
        nested = _codegen(
            recorder, twin, builder, plan, block,
            "nested" if correlated else "flat",
        )
        if not correlated or twin.mode != "auto":
            return
        recorder.counts["unnest_attempts"] += 1
        try:
            with recorder.span("stage.unnest", "plan"):
                builder = PlanBuilder(
                    catalog, unnest=True, magic_sets=twin.magic_sets,
                    exact_selectivity=twin.selectivity,
                )
                plan = builder.build(block)
        except UnnestingError:
            recorder.counts["unnest_refused"] += 1
            return
        unnested = _codegen(recorder, twin, builder, plan, block, "unnested")
        with recorder.span("stage.predict", "core.costmodel"):
            predict_paths(twin, nested, unnested)
