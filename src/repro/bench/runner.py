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
