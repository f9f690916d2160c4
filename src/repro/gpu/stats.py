"""Execution statistics accumulated on the simulated device clock."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Fields that are instantaneous *levels* (high-water marks), not
#: accumulated flows.  ``minus`` carries the later snapshot's value
#: through instead of subtracting: a peak is a maximum over the whole
#: run, so the peak *between* two snapshots is not recoverable from the
#: endpoints — the later high-water mark is the conservative answer.
_LEVEL_FIELDS = frozenset({"peak_device_bytes"})


@dataclass
class ExecutionStats:
    """Counters and modelled time for one span of device activity.

    All times are nanoseconds of *modelled* device/bus time, not
    wall-clock of the Python process.
    """

    kernel_launches: int = 0
    kernel_time_ns: float = 0.0
    #: fused scopes charged (each counts once in ``kernel_launches``)
    #: and the primitive kernels they absorbed — ``fused_kernels -
    #: fused_launches`` is the number of launches fusion saved.
    fused_launches: int = 0
    fused_kernels: int = 0
    materialize_bytes: int = 0
    materialize_time_ns: float = 0.0
    h2d_bytes: int = 0
    h2d_time_ns: float = 0.0
    d2h_bytes: int = 0
    d2h_time_ns: float = 0.0
    malloc_calls: int = 0
    malloc_time_ns: float = 0.0
    peer_bytes: int = 0
    peer_time_ns: float = 0.0
    peak_device_bytes: int = 0
    kernel_time_by_tag: dict[str, float] = field(default_factory=dict)
    launches_by_tag: dict[str, int] = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        return (
            self.kernel_time_ns
            + self.materialize_time_ns
            + self.h2d_time_ns
            + self.d2h_time_ns
            + self.malloc_time_ns
            + self.peer_time_ns
        )

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def transfer_time_ns(self) -> float:
        return self.h2d_time_ns + self.d2h_time_ns

    @property
    def transfer_fraction(self) -> float:
        """Share of total time spent moving data over PCIe."""
        total = self.total_ns
        return self.transfer_time_ns / total if total else 0.0

    def copy(self) -> "ExecutionStats":
        clone = ExecutionStats()
        for spec in fields(self):
            value = getattr(self, spec.name)
            setattr(
                clone, spec.name,
                dict(value) if isinstance(value, dict) else value,
            )
        return clone

    def minus(self, earlier: "ExecutionStats") -> "ExecutionStats":
        """The activity between ``earlier`` and this snapshot.

        Driven by ``dataclasses.fields()`` so a newly added counter is
        diffed automatically: scalars subtract, per-tag dicts subtract
        tag-wise (zero deltas dropped), and level fields
        (``_LEVEL_FIELDS``) keep this snapshot's value.
        """
        diff = ExecutionStats()
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in _LEVEL_FIELDS:
                setattr(diff, spec.name, value)
            elif isinstance(value, dict):
                delta_map = {}
                prior = getattr(earlier, spec.name)
                for tag, amount in value.items():
                    delta = amount - prior.get(tag, type(amount)())
                    if delta:
                        delta_map[tag] = delta
                setattr(diff, spec.name, delta_map)
            else:
                setattr(diff, spec.name, value - getattr(earlier, spec.name))
        return diff

    def accumulate(self, other: "ExecutionStats") -> None:
        """Fold ``other`` into this snapshot (for device-group merges).

        Flows add, per-tag dicts add tag-wise, and level fields take
        the maximum — the group-wide peak is the worst single device
        since shards never share one memory.
        """
        for spec in fields(self):
            value = getattr(other, spec.name)
            if spec.name in _LEVEL_FIELDS:
                setattr(self, spec.name, max(getattr(self, spec.name), value))
            elif isinstance(value, dict):
                mine = getattr(self, spec.name)
                for tag, amount in value.items():
                    mine[tag] = mine.get(tag, type(amount)()) + amount
            else:
                setattr(self, spec.name, getattr(self, spec.name) + value)

    def to_dict(self) -> dict:
        """Every field, dicts copied — for metrics dumps and JSON."""
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = dict(value) if isinstance(value, dict) else value
        return out

    def breakdown(self) -> dict[str, float]:
        """Milliseconds by category, for reports."""
        return {
            "kernel_ms": self.kernel_time_ns / 1e6,
            "materialize_ms": self.materialize_time_ns / 1e6,
            "h2d_ms": self.h2d_time_ns / 1e6,
            "d2h_ms": self.d2h_time_ns / 1e6,
            "malloc_ms": self.malloc_time_ns / 1e6,
            "peer_ms": self.peer_time_ns / 1e6,
            "total_ms": self.total_ms,
        }
