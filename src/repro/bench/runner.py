"""Benchmark harness: scale-factor sweeps over query/system matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import DeviceMemoryError, UnnestingError
from ..storage import Catalog
from ..tpch import generate_tpch


@dataclass
class Measurement:
    """One (system, scale factor) cell of a figure."""

    system: str
    scale_factor: float
    time_ms: float | None  # None = did not run (OOM / cannot unnest)
    rows: int | None = None
    note: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def ran(self) -> bool:
        return self.time_ms is not None


@dataclass
class Sweep:
    """All measurements of one figure."""

    title: str
    measurements: list[Measurement] = field(default_factory=list)

    def add(self, measurement: Measurement) -> None:
        self.measurements.append(measurement)

    def series(self, system: str) -> list[Measurement]:
        return [m for m in self.measurements if m.system == system]

    def cell(self, system: str, scale_factor: float) -> Measurement:
        for m in self.measurements:
            if m.system == system and m.scale_factor == scale_factor:
                return m
        raise KeyError((system, scale_factor))

    def systems(self) -> list[str]:
        seen: list[str] = []
        for m in self.measurements:
            if m.system not in seen:
                seen.append(m.system)
        return seen

    def scale_factors(self) -> list[float]:
        seen: list[float] = []
        for m in self.measurements:
            if m.scale_factor not in seen:
                seen.append(m.scale_factor)
        return seen

    def to_csv(self) -> str:
        """Plot-ready CSV: one row per (system, scale factor) cell."""
        lines = ["system,scale_factor,time_ms,rows,note"]
        for m in self.measurements:
            time_str = f"{m.time_ms:.6f}" if m.time_ms is not None else ""
            rows_str = str(m.rows) if m.rows is not None else ""
            lines.append(
                f"{m.system},{m.scale_factor:g},{time_str},{rows_str},{m.note}"
            )
        return "\n".join(lines) + "\n"


def _slug(text: str) -> str:
    return "".join(
        c if c.isalnum() or c in "._-" else "-" for c in text
    ).strip("-")


def run_sweep(
    title: str,
    sql: str,
    system_factories: Sequence[tuple[str, Callable[[Catalog], object]]],
    scale_factors: Sequence[float],
    tables: tuple[str, ...] | None = None,
    seed: int = 0,
    trace_dir: str | None = None,
    metrics=None,
) -> Sweep:
    """Execute ``sql`` on every system at every scale factor.

    Systems that cannot run a configuration record ``time_ms=None``
    with a note — exactly how the paper handles PostgreSQL's timeouts
    and GPUDB+'s out-of-memory points.

    ``trace_dir`` writes one Chrome trace-event JSON per cell (named
    ``<title>__<system>__sf<sf>.json``); failed cells still export
    whatever spans they reached.  ``metrics`` folds every successful
    run into a shared :class:`~repro.obs.metrics.MetricsRegistry`.
    """
    sweep = Sweep(title)
    for scale_factor in scale_factors:
        catalog = generate_tpch(scale_factor, seed=seed, tables=tables)
        for name, factory in system_factories:
            system = factory(catalog)
            tracer = None
            if trace_dir is not None:
                from ..obs import Tracer

                tracer = Tracer()
            try:
                try:
                    if tracer is None and metrics is None:
                        # keep the bare protocol for third-party systems
                        result = system.execute(sql)
                    else:
                        result = system.execute(
                            sql, tracer=tracer, metrics=metrics
                        )
                except UnnestingError:
                    sweep.add(
                        Measurement(name, scale_factor, None, note="cannot unnest")
                    )
                    continue
                except DeviceMemoryError:
                    sweep.add(
                        Measurement(name, scale_factor, None, note="out of memory")
                    )
                    continue
            finally:
                if tracer is not None:
                    import os

                    from ..obs import write_chrome_trace

                    tracer.finish()
                    fname = (
                        f"{_slug(title)}__{_slug(name)}__sf{scale_factor:g}.json"
                    )
                    write_chrome_trace(
                        os.path.join(trace_dir, fname), tracer
                    )
            extra = {
                "kernel_launches": result.stats.kernel_launches,
                "fused_launches": result.stats.fused_launches,
                "fused_kernels": result.stats.fused_kernels,
                "transfer_fraction": result.stats.transfer_fraction,
                "peak_device_bytes": result.stats.peak_device_bytes,
                "cache_hits": result.cache_hits,
                "cache_misses": result.cache_misses,
                "predicted_ms": result.predicted_ms,
                "kernel_time_by_tag_ms": {
                    tag: ns / 1e6
                    for tag, ns in result.stats.kernel_time_by_tag.items()
                },
                "launches_by_tag": dict(result.stats.launches_by_tag),
                "shards": getattr(result, "shards", 1),
            }
            group_report = getattr(result, "group_report", None)
            if group_report is not None:
                devices = group_report.get("devices", [])
                extra["makespan_ms"] = group_report["makespan_ns"] / 1e6
                extra["strategy"] = group_report.get("strategy")
                extra["interconnect_bytes"] = sum(
                    d.get("peer_bytes", 0) for d in devices
                ) // 2  # each peer copy is tallied at both endpoints
                extra["per_device_transfer_bytes"] = [
                    d.get("transfer_bytes", 0) for d in devices
                ]
                extra["per_device_peer_bytes"] = [
                    d.get("peer_bytes", 0) for d in devices
                ]
            sweep.add(
                Measurement(
                    name,
                    scale_factor,
                    result.total_ms,
                    rows=result.num_rows,
                    extra=extra,
                )
            )
    return sweep


def run_throughput(
    scale_factors: Sequence[float],
    streams_list: Sequence[int] = (1, 2, 4),
    statements: Sequence[str] | None = None,
    mode: str = "auto",
    seed: int = 0,
    concurrent: bool = False,
    drain_timeout_s: float = 300.0,
    shards: int = 1,
    interconnect: str = "pcie",
) -> Sweep:
    """Batched-workload throughput: the serving-layer companion to
    :func:`run_sweep`'s solo latencies.

    Each cell pushes the workload (default: the 10-query paper mix)
    through a fresh :class:`~repro.serve.EngineSession` at one stream
    count; ``time_ms`` is the modelled batch makespan, with the serial
    sum, speedup and plan-cache hit ratio in ``extra``.

    Every cell runs the one :class:`~repro.serve.AsyncEngine`: drained
    on the calling thread with earliest-free stream placement by
    default, on one worker thread per stream with ``concurrent=True``;
    ``extra`` carries the measured wall-clock batch time either way.
    """
    import time as _time

    from ..serve import AsyncEngine, EngineSession, paper_mix_statements

    sweep = Sweep("throughput")
    for scale_factor in scale_factors:
        catalog = generate_tpch(scale_factor, seed=seed)
        workload = list(statements) if statements else paper_mix_statements()
        for streams in streams_list:
            with EngineSession(
                catalog, mode=mode, shards=shards, interconnect=interconnect,
            ) as session:
                engine = AsyncEngine(
                    session, workers=streams,
                    queue_capacity=max(64, len(workload)),
                    autostart=concurrent,
                )
                wall_start = _time.perf_counter()
                try:
                    report = engine.run_batch(workload, drain_timeout_s)
                    wall_ms = (_time.perf_counter() - wall_start) * 1e3
                finally:
                    engine.shutdown(drain=False, timeout=10.0)
                label = f"{streams}-workers" if concurrent else f"{streams}-streams"
                if report is None:
                    sweep.add(Measurement(
                        label, scale_factor, None, note="drain timeout",
                    ))
                    continue
                sweep.add(
                    Measurement(
                        label,
                        scale_factor,
                        report.makespan_ns / 1e6,
                        rows=len(report.completed),
                        note=f"{len(report.rejected)} rejected"
                        if report.rejected else "",
                        extra={
                            "serial_ms": report.serial_ns / 1e6,
                            "speedup": report.speedup,
                            "queries_per_second": report.queries_per_second,
                            "plan_cache_hit_ratio":
                                session.plan_cache.hit_ratio,
                            "shards": shards,
                            "interconnect_bytes": (
                                session.sharded.group.interconnect_bytes()
                                if session.sharded is not None else 0
                            ),
                            "wall_ms": wall_ms,
                        },
                    )
                )
    return sweep


def run_net_throughput(
    scale_factors: Sequence[float],
    workers_list: Sequence[int] = (2, 4),
    statements: Sequence[str] | None = None,
    policy: str = "fair",
    mode: str = "auto",
    seed: int = 0,
    drain_timeout_s: float = 300.0,
) -> Sweep:
    """Socket-driven throughput: the full network stack under load.

    Each cell starts a :class:`~repro.net.server.NetServer` over a
    fresh session/engine, then drives the workload concurrently from
    *two tenants* (alpha and beta of the demo roster) over real
    sockets — frames, auth, QoS admission and the protocol row codec
    are all on the measured path.  ``time_ms`` is the wall-clock batch
    time; ``extra`` carries per-tenant rows/queries and the modelled
    makespan for comparison with :func:`run_throughput`.
    """
    import threading
    import time as _time

    from ..net.client import ReproNetClient
    from ..net.qos import demo_registry
    from ..net.server import NetServer, ServerThread
    from ..obs import MetricsRegistry
    from ..serve import AsyncEngine, EngineSession, paper_mix_statements

    sweep = Sweep("net-throughput")
    for scale_factor in scale_factors:
        catalog = generate_tpch(scale_factor, seed=seed)
        workload = list(statements) if statements else paper_mix_statements()
        for workers in workers_list:
            registry = demo_registry()
            with EngineSession(
                catalog, mode=mode, metrics=MetricsRegistry(),
            ) as session:
                engine = AsyncEngine(
                    session,
                    workers=workers,
                    policy=policy,
                    tenant_budgets=registry.budgets(
                        session.device_capacity_bytes
                    ),
                    tenant_weights=registry.weights(),
                    slo_objectives=registry.slo_objectives(),
                )
                server = ServerThread(NetServer(engine, registry)).start()
                failures: list[str] = []

                def drive(token: str) -> None:
                    try:
                        with ReproNetClient(
                            server.host, server.port, token=token,
                        ) as client:
                            for sql in workload:
                                client.execute(sql)
                    except Exception as exc:  # surfaced via the cell note
                        failures.append(f"{token}: {exc}")

                wall_start = _time.perf_counter()
                threads = [
                    threading.Thread(target=drive, args=(token,))
                    for token in ("alpha-token", "beta-token")
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(drain_timeout_s)
                wall_ms = (_time.perf_counter() - wall_start) * 1e3
                engine.drain(timeout=drain_timeout_s)
                report = engine.report()
                tenants = engine.tenant_stats()
                engine.shutdown(drain=False, timeout=10.0)
                server.stop()
                sweep.add(
                    Measurement(
                        f"{workers}-workers",
                        scale_factor,
                        wall_ms,
                        rows=sum(t["rows"] for t in tenants.values()),
                        note="; ".join(failures),
                        extra={
                            "policy": policy,
                            "makespan_ms": report.makespan_ns / 1e6,
                            "queries_per_second":
                                len(report.completed) / (wall_ms / 1e3)
                                if wall_ms else 0.0,
                            "tenants": tenants,
                            "slo": engine.slo.snapshot(),
                            "flight_recorder": {
                                "recorded": engine.flight_recorder.recorded,
                                "dropped": engine.flight_recorder.dropped,
                            },
                        },
                    )
                )
    return sweep
