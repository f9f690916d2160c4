"""Every metric the benchmark reports, in one table.

``BENCHMARK.json`` lists the same names (``selftest.py`` checks that the
two agree); this file adds what that format has no room for: which clock
a metric reads, the workloads it exists on, and the end-to-end metric x
workload it is expected to move.  A per-layer metric's layer is its name
up to the last dot (the module name).
On every workload not named the prediction is *no change*.

Clocks: ``wall`` is host ``perf_counter`` time (noisy, bounded);
``modelled`` is simulated device time and ``exact`` a count — both are
deterministic and must repeat bit-for-bit between runs of one commit.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("solo_cold", "session_warm", "nested_loop", "session_params",
       "net_loopback", "sharded_mix")
SESSIONS = ("session_warm", "nested_loop", "session_params")
COMPILES = ("solo_cold", "session_params")
#: results carry solo QueryResult counters (the sharded path fills fewer)
SOLO_RESULTS = ("solo_cold",) + SESSIONS + ("net_loopback",)
#: the benchmark holds the QueryResult itself (not only rows over a socket)
IN_PROCESS = ("solo_cold",) + SESSIONS + ("sharded_mix",)
#: an EngineSession (and its plan cache) serves the statements
SERVED = SESSIONS + ("net_loopback", "sharded_mix")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    clock: str
    meaning: str
    #: False for the two the driver's contract has no room for — one is
    #: always 0, the other repeats exactly — which the suite and
    #: ``compare.py`` hold to bit-for-bit equality instead of a bound
    bounded: bool = True


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    clock: str
    workloads: tuple[str, ...]
    moves: str
    #: needs several runs, so only the suite (not one driver run) has it
    suite_only: bool = False


# A bound is the share of the parent's median by which a metric may get
# worse before it is a regression.  They were set from the spread of ten
# seeds on the 2-core reference box (README, "Steadiness";
# baseline/spread.json): about three times the widest interquartile
# spread seen, which is machine drift of a few percent over minutes.
END_TO_END = [
    EndToEnd("query_wall_ms_p50", "ms", "lower", 0.25, "wall",
             "median caller-observed latency of one statement"),
    EndToEnd("query_wall_ms_p95", "ms", "lower", 0.25, "wall",
             "p95 of the same samples (at least ten samples beyond it)"),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25, "wall",
             "statements completed per timed wall second, all clients"),
    EndToEnd("modelled_ms_per_query", "ms_modelled", "lower", 0.0, "modelled",
             "mean simulated device time the caller would wait "
             "(group makespan on sharded_mix)", bounded=False),
    EndToEnd("failed_share", "ratio", "lower", 0.0, "exact",
             "(errors + refusals + wrong row sets) / statements attempted",
             bounded=False),
    EndToEnd("setup_s", "s", "lower", 0.25, "wall",
             "imports + catalog + reference + session/server start + warm-up"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, "wall",
             "ru_maxrss of the workload's process"),
]

_P50 = "query_wall_ms_p50"
_P95 = "query_wall_ms_p95"
_QPS = "queries_per_s"
_MOD = "modelled_ms_per_query"

PER_LAYER = [
    # -- sql ----------------------------------------------------------------
    PerLayer("sql.parse_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50} @ solo_cold, session_params misses"),
    PerLayer("sql.parse_calls_per_query", "count", "lower", "exact", COMPILES,
             f"{_P50} @ solo_cold, session_params misses"),
    # -- plan ---------------------------------------------------------------
    PerLayer("plan.bind_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50} @ solo_cold"),
    PerLayer("plan.bind_calls_per_query", "count", "lower", "exact", COMPILES,
             f"{_P50} @ solo_cold"),
    PerLayer("plan.build_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50} @ solo_cold"),
    PerLayer("plan.unnest_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50} @ solo_cold"),
    PerLayer("plan.unnest_refused_share", "ratio", "lower", "exact", COMPILES,
             f"{_P50} @ solo_cold"),
    # -- core.codegen ---------------------------------------------------------
    PerLayer("core.codegen.generate_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50} @ solo_cold"),
    PerLayer("core.codegen.generate_calls_per_query", "count", "lower",
             "exact", COMPILES, f"{_P50} @ solo_cold"),
    PerLayer("core.codegen.source_bytes", "bytes", "lower", "exact",
             IN_PROCESS, f"{_P50} @ solo_cold"),
    # -- core.costmodel -------------------------------------------------------
    PerLayer("core.costmodel.predict_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50}/{_P95} @ solo_cold, session_params"),
    PerLayer("core.costmodel.pred_err_share", "ratio", "lower", "exact",
             COMPILES, f"{_MOD} @ solo_cold, session_params (wrong choice)"),
    PerLayer("core.costmodel.nested_chosen_share", "ratio", "higher", "exact",
             COMPILES, f"{_MOD} @ solo_cold, session_params"),
    # -- core.fusion ----------------------------------------------------------
    PerLayer("core.fusion.tuner_ms", "ms", "lower", "wall", ("solo_cold",),
             f"{_P50} @ solo_cold"),
    PerLayer("core.fusion.fused_launch_share", "ratio", "higher", "exact",
             IN_PROCESS, f"{_MOD} @ solo_cold"),
    # -- core.executor --------------------------------------------------------
    PerLayer("core.executor.prepare_ms", "ms", "lower", "wall", COMPILES,
             f"{_P50}, {_QPS} @ solo_cold"),
    PerLayer("core.executor.prepare_unattributed_ms", "ms", "lower", "wall",
             COMPILES, f"{_P50}, {_QPS} @ solo_cold (redundant re-parse/bind)"),
    PerLayer("core.executor.prepare_share", "ratio", "lower", "wall",
             ("solo_cold",) + SESSIONS, f"{_P50}, {_QPS} @ solo_cold"),
    PerLayer("core.executor.run_ms", "ms", "lower", "wall",
             SOLO_RESULTS, f"{_P50}, {_QPS} @ session_warm, nested_loop"),
    # -- core.runtime (the SUBQ loop) -----------------------------------------
    PerLayer("core.runtime.subq_iterations_per_query", "count", "lower",
             "exact", ALL, f"{_MOD} @ nested_loop"),
    PerLayer("core.runtime.subq_batches_per_query", "count", "lower", "exact",
             ALL, f"{_MOD} @ session_warm"),
    PerLayer("core.runtime.cache_hit_ratio", "ratio", "higher", "exact",
             ("nested_loop",), f"{_MOD} @ nested_loop"),
    PerLayer("core.runtime.index_probes_per_query", "count", "lower", "exact",
             SOLO_RESULTS, f"{_MOD} @ nested_loop"),
    PerLayer("core.runtime.pool_restores_per_query", "count", "lower",
             "exact", SOLO_RESULTS, f"{_MOD} @ nested_loop"),
    PerLayer("core.runtime.adaptive_switch_share", "ratio", "lower", "exact",
             SOLO_RESULTS, f"{_MOD} @ solo_cold, session_params"),
    PerLayer("core.runtime.subq_overhead_modelled_ms", "ms_modelled", "lower",
             "modelled", ALL, f"{_MOD} @ nested_loop"),
    PerLayer("core.runtime.subq_ms", "ms", "lower", "wall", ALL,
             f"{_P50}/{_P95}, {_QPS} @ nested_loop"),
    PerLayer("core.runtime.iter_wall_us", "us", "lower", "wall", ALL,
             f"{_P50}/{_P95}, {_QPS} @ nested_loop"),
    # -- engine (operators, context, residency) -------------------------------
    PerLayer("engine.preload_ms", "ms", "lower", "wall", ALL,
             f"{_P50} @ session_warm, nested_loop"),
    PerLayer("engine.operator_ms", "ms", "lower", "wall", ALL,
             f"{_P50} @ session_warm, nested_loop"),
    PerLayer("engine.fetch_ms", "ms", "lower", "wall", ALL,
             f"{_P50} @ session_warm, nested_loop"),
    PerLayer("engine.preload_modelled_ms", "ms_modelled", "lower", "modelled",
             ALL, f"{_MOD} on all"),
    PerLayer("engine.operator_modelled_ms", "ms_modelled", "lower",
             "modelled", ALL, f"{_MOD} on all"),
    PerLayer("engine.fetch_modelled_ms", "ms_modelled", "lower", "modelled",
             ALL, f"{_MOD} on all"),
    PerLayer("engine.modelled_unattributed_ms", "ms_modelled", "lower",
             "modelled", ALL, f"{_MOD} on all"),
    PerLayer("engine.residency_evictions", "count", "lower", "exact",
             SESSIONS + ("net_loopback",), f"{_MOD} on session workloads"),
    # -- gpu (simulated device; a host-speed change leaves all identical) -----
    PerLayer("gpu.kernel_launches_per_query", "count", "lower", "exact", ALL,
             f"{_MOD} on all"),
    PerLayer("gpu.fused_launches_per_query", "count", "higher", "exact", ALL,
             f"{_MOD} on all"),
    PerLayer("gpu.pcie_bytes_per_query", "bytes", "lower", "exact", ALL,
             f"{_MOD} on all"),
    PerLayer("gpu.transfer_share", "ratio", "lower", "modelled", ALL,
             f"{_MOD} on all"),
    PerLayer("gpu.peak_hbm_mb", "MB", "lower", "exact", ALL,
             f"{_MOD} on all"),
    PerLayer("gpu.modelled_ms_per_query", "ms_modelled", "lower", "modelled",
             ALL, f"is {_MOD}, for runs that print per-layer metrics only"),
    # -- serve.plancache ------------------------------------------------------
    PerLayer("serve.plancache.hit_ratio", "ratio", "higher", "exact",
             SERVED,
             f"{_P50}, {_QPS} @ session_params"),
    PerLayer("serve.plancache.evictions", "count", "lower", "exact",
             SERVED,
             f"{_P50}, {_QPS} @ session_params"),
    PerLayer("serve.plancache.lookup_us", "us", "lower", "wall",
             SERVED,
             f"{_P50} @ session_params, session_warm"),
    # -- serve.session --------------------------------------------------------
    PerLayer("serve.session.run_ms", "ms", "lower", "wall",
             SERVED,
             f"{_P50} @ session_warm, session_params"),
    PerLayer("serve.session.overhead_ms", "ms", "lower", "wall",
             SESSIONS + ("sharded_mix",),
             f"{_P50} @ session_warm, session_params"),
    PerLayer("serve.session.host_per_modelled", "ratio", "lower", "wall",
             ALL, f"{_P50} @ session_warm, session_params"),
    # -- serve.concurrent -----------------------------------------------------
    PerLayer("serve.concurrent.queue_wait_ms_p50", "ms", "lower", "wall",
             ("net_loopback",), f"{_P95}, {_QPS} @ net_loopback"),
    PerLayer("serve.concurrent.queue_wait_ms_p95", "ms", "lower", "wall",
             ("net_loopback",), f"{_P95}, {_QPS} @ net_loopback"),
    PerLayer("serve.concurrent.admission_wait_ms_p50", "ms", "lower", "wall",
             ("net_loopback",), f"{_P95} @ net_loopback"),
    PerLayer("serve.concurrent.run_ms_p50", "ms", "lower", "wall",
             ("net_loopback",), f"{_P95}, {_QPS} @ net_loopback"),
    PerLayer("serve.concurrent.rejected_share", "ratio", "lower", "exact",
             ("net_loopback",), f"{_QPS} @ net_loopback"),
    PerLayer("serve.concurrent.modelled_makespan_ms", "ms_modelled", "lower",
             "modelled", ("net_loopback",), f"{_MOD} @ net_loopback"),
    # -- net.protocol ---------------------------------------------------------
    PerLayer("net.protocol.encode_us_per_frame", "us", "lower", "wall",
             ("net_loopback",), f"{_P50} @ net_loopback"),
    PerLayer("net.protocol.decode_us_per_frame", "us", "lower", "wall",
             ("net_loopback",), f"{_P50} @ net_loopback"),
    PerLayer("net.protocol.frames_per_query", "count", "lower", "exact",
             ("net_loopback",), f"{_P50} @ net_loopback"),
    # the RESULT frame's stats carry wall times whose digits vary
    PerLayer("net.protocol.bytes_per_query", "bytes", "lower", "wall",
             ("net_loopback",), f"{_P50} @ net_loopback"),
    PerLayer("net.protocol.codec_share", "ratio", "lower", "wall",
             ("net_loopback",), f"{_P50} @ net_loopback"),
    # -- net.server -----------------------------------------------------------
    PerLayer("net.server.rtt_ms_p50", "ms", "lower", "wall",
             ("net_loopback",), f"{_P50}/{_P95} @ net_loopback"),
    PerLayer("net.server.rtt_ms_p99", "ms", "lower", "wall",
             ("net_loopback",), f"{_P95} @ net_loopback (informational)"),
    PerLayer("net.server.overhead_ms_p50", "ms", "lower", "wall",
             ("net_loopback",), f"{_P50}/{_P95} @ net_loopback"),
    PerLayer("net.server.tenant_qps_ratio", "ratio", "higher", "wall",
             ("net_loopback",), f"{_QPS} @ net_loopback"),
    # -- core.sharded ---------------------------------------------------------
    PerLayer("core.sharded.prepare_ms", "ms", "lower", "wall",
             ("sharded_mix",), "setup_s @ sharded_mix (warm-up plans)"),
    PerLayer("core.sharded.run_ms", "ms", "lower", "wall", ("sharded_mix",),
             f"{_P50}, {_QPS} @ sharded_mix"),
    PerLayer("core.sharded.interconnect_bytes_per_query", "bytes", "lower",
             "exact", ("sharded_mix",), f"{_MOD} @ sharded_mix"),
    PerLayer("core.sharded.skew", "ratio", "lower", "modelled",
             ("sharded_mix",), f"{_MOD} @ sharded_mix (slowest shard)"),
    PerLayer("core.sharded.broadcast_share", "ratio", "lower", "exact",
             ("sharded_mix",), f"{_MOD} @ sharded_mix"),
    PerLayer("core.sharded.makespan_vs_solo", "ratio", "lower", "modelled",
             ("sharded_mix",), f"{_MOD} @ sharded_mix"),
    # -- set-up and the harness itself ----------------------------------------
    PerLayer("tpch.generate_s", "s", "lower", "wall", ALL, "setup_s on all"),
    PerLayer("bench.reference_s", "s", "lower", "wall", ALL,
             "setup_s on all"),
    PerLayer("bench.import_s", "s", "lower", "wall", ALL, "setup_s on all"),
    PerLayer("bench.warmup_s", "s", "lower", "wall", ALL, "setup_s on all"),
    PerLayer("bench.trace_overhead_share", "ratio", "lower", "wall", ALL,
             "none: the cost of the instrumentation itself"),
    PerLayer("bench.repeat_spread", "ratio", "lower", "wall", ALL,
             "none: (max - min) / median of query_wall_ms_p50 over repeats",
             suite_only=True),
    PerLayer("bench.failed_share", "ratio", "lower", "exact", ALL,
             "none: (errors + refusals + wrong row sets) / attempted"),
    # -- the roadmap's least-code trajectory ----------------------------------
    PerLayer("repo.src_loc", "count", "lower", "exact", ALL, "none"),
    PerLayer("repo.src_files", "count", "lower", "exact", ALL, "none"),
    PerLayer("repo.public_symbols", "count", "lower", "exact", ALL, "none"),
]

PER_LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}
