"""Exchange steps: the data movement of a sharded plan.

A single-device plan never moves data between devices, so exchanges
exist only in *distributed* plans assembled by the sharded executor's
optimizer.  Each :class:`ExchangeStep` records the placement change of
one table (or of the result stream, for a gather) and the modelled
cost the optimizer charged when it chose it, so EXPLAIN can show the
broadcast-vs-shuffle decision with numbers attached.

The three kinds:

``broadcast``
    Every shard receives a full copy of the table.  Replication is
    staged from the host over each shard's own PCIe link (the home of
    a base table's full image is host memory), so its cost scales with
    N full copies but needs no peer links.
``repartition``
    The table's home slices are redistributed over the peer
    interconnect so rows land on ``hash(key) % N``.  About
    ``(N-1)/N`` of the table crosses links; the cost is per ordered
    device pair: ``latency + bytes / bandwidth``.
``gather``
    Per-shard partial results converge on the coordinator (device 0)
    over its incoming links before the global tail runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ExchangeStep:
    """One executed (or planned) exchange, for reports and EXPLAIN.

    ``kind`` is ``broadcast`` / ``repartition`` / ``gather``; ``form``
    is the form-qualified shard-catalog name the exchange produced
    (e.g. ``lineitem##hash:l_partkey``).
    """

    kind: str
    table: str
    form: str
    columns: tuple[str, ...] = ()
    key: str | None = None
    host_bytes_per_shard: int = 0
    link_bytes: int = 0
    cost_ns: float = 0.0
    note: str = ""

    def describe(self) -> str:
        if self.kind == "broadcast":
            return (
                f"broadcast {self.table}: {self.host_bytes_per_shard} B/shard "
                f"over host PCIe{' — ' + self.note if self.note else ''}"
            )
        if self.kind == "repartition":
            return (
                f"repartition {self.table} by hash({self.key}): "
                f"{self.link_bytes} B over peer links"
                f"{' — ' + self.note if self.note else ''}"
            )
        return (
            f"gather: {self.link_bytes} B onto coordinator"
            f"{' — ' + self.note if self.note else ''}"
        )
