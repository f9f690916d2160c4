"""The modelled stream timeline: placement, admission push-back, makespan.

The simulated device executes one query at a time in Python, but a
real GPU serves concurrent queries on separate *streams*: kernels of
different queries interleave, and the batch finishes when the last
stream drains — not after the sum of solo latencies.  This module
holds the one modelled placement rule (:class:`StreamTimeline`) and
the report types every front end shares; the engine that drives it is
:class:`~repro.serve.concurrent.AsyncEngine`:

* each query's measured modelled duration is **placed** on a stream —
  the earliest-free one (list scheduling) when the calling thread
  drains the batch, the executing worker's own when threads do;
* **admission push-back** delays a start while the working sets of
  queries modelled as in-flight would overflow HBM;
* the **makespan** is the last stream's drain time, floored by the
  total PCIe traffic (all streams share one bus — transfers
  serialize even when kernels overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import QueryResult
from ..core.executor import _sql_snippet
from ..errors import ReproError
from ..obs.export import write_trace_document


class AdmissionError(ReproError):
    """The query's working set cannot fit on the device at all."""


@dataclass
class WorkloadReport:
    """The modelled outcome of one scheduled batch.

    ``queries`` are the batch's
    :class:`~repro.serve.concurrent.QueryTicket` records, in seq order.
    """

    streams: int
    queries: list = field(default_factory=list)
    bus_ns: float = 0.0

    @property
    def completed(self) -> list:
        return [q for q in self.queries if q.status == "done"]

    @property
    def rejected(self) -> list:
        return [q for q in self.queries if q.status == "rejected"]

    @property
    def cancelled(self) -> list:
        return [q for q in self.queries if q.status == "cancelled"]

    @property
    def serial_ns(self) -> float:
        """Sum of per-query durations — the one-at-a-time baseline."""
        return sum(q.duration_ns for q in self.completed)

    @property
    def makespan_ns(self) -> float:
        """Drain time of the slowest stream, floored by bus traffic."""
        stream_drain = max((q.end_ns for q in self.completed), default=0.0)
        return max(stream_drain, self.bus_ns)

    @property
    def speedup(self) -> float:
        makespan = self.makespan_ns
        return self.serial_ns / makespan if makespan else 0.0

    @property
    def queries_per_second(self) -> float:
        """Modelled throughput over the batch makespan."""
        makespan_s = self.makespan_ns / 1e9
        return len(self.completed) / makespan_s if makespan_s else 0.0

    def to_dict(self) -> dict:
        return {
            "streams": self.streams,
            "completed": len(self.completed),
            "rejected": len(self.rejected),
            "cancelled": len(self.cancelled),
            "makespan_ms": self.makespan_ns / 1e6,
            "serial_ms": self.serial_ns / 1e6,
            "bus_ms": self.bus_ns / 1e6,
            "speedup": self.speedup,
            "queries_per_second": self.queries_per_second,
            "queries": [q.to_dict() for q in self.queries],
        }

    def chrome_trace(self) -> dict:
        """A per-stream Chrome trace: one lane (tid) per stream."""
        events: list[dict] = [
            {
                "name": "thread_name", "ph": "M", "pid": 0, "tid": stream,
                "args": {"name": f"stream {stream}"},
            }
            for stream in range(self.streams)
        ]
        for query in self.completed:
            events.append({
                "name": _sql_snippet(query.sql, 60),
                "cat": "query",
                "ph": "X",
                "ts": query.start_ns / 1e3,
                "dur": query.duration_ns / 1e3,
                "pid": 0,
                "tid": query.stream,
                "args": {
                    "seq": query.seq,
                    "queue_wait_ms": query.queue_wait_ns / 1e6,
                    "plan_cache_hit": query.plan_cache_hit,
                    "rows": query.result.num_rows if query.result else None,
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "modelled-device-ns"},
        }

    def write_chrome_trace(self, path) -> None:
        write_trace_document(path, self.chrome_trace())

    def summary(self) -> str:
        return (
            f"{len(self.completed)} queries on {self.streams} streams: "
            f"makespan {self.makespan_ns / 1e6:.3f} ms vs serial "
            f"{self.serial_ns / 1e6:.3f} ms "
            f"({self.speedup:.2f}x, {self.queries_per_second:.1f} q/s"
            f"{', %d rejected' % len(self.rejected) if self.rejected else ''}"
            f"{', %d cancelled' % len(self.cancelled) if self.cancelled else ''})"
        )


class StreamTimeline:
    """The modelled placement rule: per-stream clocks, HBM, one bus.

    Not thread-safe: the engine places under the session lock, right
    after the run whose result it places.
    """

    def __init__(self, streams: int, capacity_bytes: int):
        if streams < 1:
            raise ValueError("need at least one stream")
        self.capacity = capacity_bytes
        self.free_at = [0.0] * streams
        self.in_flight: list[tuple[float, int]] = []  # (end_ns, working_set)
        self.bus_ns = 0.0

    def place(
        self, working_set: int, result: QueryResult, stream: int | None = None,
    ) -> tuple[int, float, float]:
        """Place one executed query; ``(stream, start_ns, duration_ns)``.

        ``stream=None`` picks the earliest-free stream (list
        scheduling); a worker thread passes its own id.
        """
        if stream is None:
            stream = min(
                range(len(self.free_at)), key=self.free_at.__getitem__
            )
        # push the start past modelled completions until the query fits
        # in HBM next to the working sets still in flight
        start = self.free_at[stream]
        while True:
            running = [(end, ws) for end, ws in self.in_flight if end > start]
            if sum(ws for _, ws in running) + working_set <= self.capacity:
                break
            start = min(end for end, _ in running)
        # a sharded result's wall-clock is the group makespan (the
        # slowest device), not the sum of every device's busy time
        duration = (
            result.makespan_ns
            if result.makespan_ns is not None
            else result.stats.total_ns
        )
        end = start + duration
        self.free_at[stream] = end
        # every later start is at least the earliest stream clock, and
        # clocks only move forward: an entry that ends by then can never
        # hold HBM against a later placement again
        floor = min(self.free_at)
        self.in_flight = [(e, ws) for e, ws in self.in_flight if e > floor]
        self.in_flight.append((end, working_set))
        # one device: its PCIe transfer time.  A device group: each
        # shard has its *own* link to the host, so the serialized-bus
        # floor is set by the busiest single link, not the group-merged
        # sum (which would erase the very parallelism sharding buys)
        devices = (result.group_report or {}).get("devices")
        self.bus_ns += (
            max(d["transfer_time_ns"] for d in devices)
            if devices else result.stats.transfer_time_ns
        )
        return stream, start, duration


def split_statements(text: str) -> list[str]:
    """Split a workload file into statements on ``;`` (quote-aware)."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in text:
        if ch == "'":
            in_string = not in_string
        if ch == ";" and not in_string:
            statement = "".join(current).strip()
            if statement:
                statements.append(statement)
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


#: The CI / bench 10-query mixed workload: every paper query family,
#: with repeats so the plan cache and residency manager are exercised.
PAPER_MIX = (
    "tpch_q2",
    "tpch_q4",
    "tpch_q17",
    "paper_q4v",
    "tpch_q2",
    "paper_q6",
    "tpch_q17",
    "paper_q7",
    "tpch_q4",
    "paper_q8",
)


def paper_mix_statements() -> list[str]:
    from ..tpch import ALL_EVALUATION_QUERIES

    return [ALL_EVALUATION_QUERIES[name] for name in PAPER_MIX]
