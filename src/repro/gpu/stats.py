"""Execution statistics accumulated on the simulated device clock."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Fields that are instantaneous *levels* (high-water marks), not
#: accumulated flows: ``accumulate`` takes their maximum instead of
#: adding them.
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
    #: Eq. (1)'s regressor over the charged launches: with ``x =
    #: ceil(elements/threads) * work`` (a fused launch: its combined
    #: iterations) and ``t`` the launch's charged ns, these are Σx,
    #: Σx² and Σx·t — with ``kernel_launches`` and ``kernel_time_ns``
    #: the moments a least-squares refit of ``C`` and ``K`` reads
    #: (:func:`repro.core.calibrator.fit`).
    kernel_x: float = 0.0
    kernel_xx: float = 0.0
    kernel_xt: float = 0.0
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
        clone = object.__new__(ExecutionStats)
        mine, state = self.__dict__, clone.__dict__
        for name in _SCALAR_FIELDS:
            state[name] = mine[name]
        for name in _DICT_FIELDS:
            state[name] = dict(mine[name])
        return clone

    def accumulate(self, other: "ExecutionStats") -> None:
        """Fold ``other`` into this snapshot (for device-group merges).

        Flows add, per-tag dicts add tag-wise, and level fields take
        the maximum — the group-wide peak is the worst single device
        since shards never share one memory.
        """
        mine, theirs = self.__dict__, other.__dict__
        for name in _FLOW_FIELDS:
            mine[name] += theirs[name]
        for name in _LEVEL_FIELDS:
            mine[name] = max(mine[name], theirs[name])
        for name in _DICT_FIELDS:
            tags = mine[name]
            for tag, amount in theirs[name].items():
                tags[tag] = tags.get(tag, type(amount)()) + amount


#: The field split ``copy`` and ``accumulate`` walk, computed once.
_DICT_FIELDS = tuple(f.name for f in fields(ExecutionStats) if f.default_factory is dict)
_SCALAR_FIELDS = tuple(f.name for f in fields(ExecutionStats) if f.name not in _DICT_FIELDS)
_FLOW_FIELDS = tuple(name for name in _SCALAR_FIELDS if name not in _LEVEL_FIELDS)

