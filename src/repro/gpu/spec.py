"""Simulated device specifications.

The timing model follows the paper's cost formulas: a kernel costs a
fixed launch constant ``C`` plus ``K_i`` per thread-iteration, where a
kernel over ``D_i`` elements on ``Th`` concurrent threads performs
``ceil(D_i / Th)`` iterations per thread (Eq. 1).  Materialization
costs ``M`` per byte written.  Transfers move at PCIe bandwidth.

Two presets mirror the paper's hardware: a Tesla V100 (32 GB HBM, the
server GPU of Figures 8-13 and 15-16) and a GTX 1080 (8 GB GDDR5, the
desktop GPU of the Figure 14 memory experiment).  ``with_memory``
shrinks device memory in proportion to the micro-scale data so the
out-of-memory crossover lands at the same scale factor as on real
hardware (see DESIGN.md section 2).  An ``a100()`` preset models a
modern HBM2e node for multi-device (sharded) runs.

Device *groups* add a modelled interconnect: :class:`LinkSpec` is one
directed peer link (bandwidth + per-message latency, charged exactly
like PCIe is), :class:`InterconnectSpec` the full-mesh fabric with
presets for PCIe peer-to-peer and NVLink-class links.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of a simulated GPU.

    Attributes:
        name: human-readable device name.
        memory_bytes: device memory capacity.
        threads: total concurrent hardware threads (``Th`` in Eq. 1).
        launch_overhead_ns: fixed cost ``C`` of launching one kernel.
        iteration_ns: default ``K_i`` — time of one thread-iteration of
            a simple elementwise kernel.
        materialize_ns_per_byte: ``M`` — cost of writing one result byte.
        pcie_bytes_per_ns: host<->device transfer bandwidth.
        malloc_overhead_ns: cost of one raw device malloc/free pair;
            memory pools exist to avoid paying this per operator.
    """

    name: str
    memory_bytes: int
    threads: int
    launch_overhead_ns: float
    iteration_ns: float
    materialize_ns_per_byte: float
    pcie_bytes_per_ns: float
    malloc_overhead_ns: float

    @staticmethod
    def v100() -> "DeviceSpec":
        """The paper's server GPU: Tesla V100, 32 GB HBM2, PCIe 3 x16."""
        return DeviceSpec(
            name="tesla-v100",
            memory_bytes=32 * 2**30,
            threads=163_840,  # 80 SMs x 2048 resident threads
            launch_overhead_ns=5_000.0,
            iteration_ns=220.0,
            materialize_ns_per_byte=0.004,
            pcie_bytes_per_ns=12.0,  # ~12 GB/s effective
            malloc_overhead_ns=80_000.0,
        )

    @staticmethod
    def gtx1080() -> "DeviceSpec":
        """The paper's desktop GPU: GTX 1080, 8 GB GDDR5X."""
        return DeviceSpec(
            name="gtx-1080",
            memory_bytes=8 * 2**30,
            threads=40_960,  # 20 SMs x 2048 resident threads
            launch_overhead_ns=6_000.0,
            iteration_ns=340.0,
            materialize_ns_per_byte=0.007,
            pcie_bytes_per_ns=10.0,
            malloc_overhead_ns=90_000.0,
        )

    @staticmethod
    def a100() -> "DeviceSpec":
        """A modern HBM2e node GPU: A100-SXM 80 GB, PCIe 4 x16.

        Not a paper device — added for multi-device (sharded) runs so a
        :class:`DeviceGroup` can model a contemporary NVLink node
        rather than only the paper's 2019-era hardware.
        """
        return DeviceSpec(
            name="a100-sxm-80gb",
            memory_bytes=80 * 2**30,
            threads=221_184,  # 108 SMs x 2048 resident threads
            launch_overhead_ns=4_000.0,
            iteration_ns=150.0,
            materialize_ns_per_byte=0.002,
            pcie_bytes_per_ns=24.0,  # PCIe 4 x16, ~24 GB/s effective
            malloc_overhead_ns=70_000.0,
        )

    def with_memory(self, memory_bytes: int) -> "DeviceSpec":
        """A copy of this spec with a different memory capacity."""
        return replace(self, memory_bytes=memory_bytes)


@dataclass(frozen=True)
class LinkSpec:
    """One directed device-to-device link of the modelled interconnect.

    A peer copy of ``n`` bytes costs ``latency_ns + n / bytes_per_ns``,
    the same shape as a PCIe transfer plus an explicit per-message
    setup cost (NVLink/P2P copies are latency-bound for the small
    per-pair messages a repartition produces, so latency is modelled
    separately instead of being folded into bandwidth).
    """

    bytes_per_ns: float
    latency_ns: float

    def transfer_ns(self, nbytes: int) -> float:
        """Modelled time to move ``nbytes`` over this link."""
        return self.latency_ns + nbytes / self.bytes_per_ns


@dataclass(frozen=True)
class InterconnectSpec:
    """The device-to-device fabric of a :class:`DeviceGroup`.

    A full mesh: every ordered device pair communicates over
    ``default_link`` unless an override is given for that pair.
    ``overrides`` is a tuple of ``(src, dst, LinkSpec)`` triples so the
    spec stays hashable/frozen like :class:`DeviceSpec`.
    """

    name: str
    default_link: LinkSpec
    overrides: tuple = ()

    def link(self, src: int, dst: int) -> LinkSpec:
        """The link used for transfers from device ``src`` to ``dst``."""
        for over_src, over_dst, link in self.overrides:
            if over_src == src and over_dst == dst:
                return link
        return self.default_link

    @staticmethod
    def pcie_p2p() -> "InterconnectSpec":
        """Peer copies staged over the shared PCIe switch (no NVLink).

        Slower than the host link and latency-heavy: both directions
        of the copy cross the same switch and the DMA engines must
        synchronise, so effective bandwidth is below a dedicated
        host transfer.
        """
        return InterconnectSpec(
            name="pcie-p2p",
            default_link=LinkSpec(bytes_per_ns=8.0, latency_ns=2_500.0),
        )

    @staticmethod
    def nvlink() -> "InterconnectSpec":
        """NVLink 2.0-class point-to-point links (V100 NVLink bridge)."""
        return InterconnectSpec(
            name="nvlink",
            default_link=LinkSpec(bytes_per_ns=40.0, latency_ns=1_300.0),
        )

    @staticmethod
    def nvswitch() -> "InterconnectSpec":
        """NVSwitch fabric (A100 node): high bandwidth, low latency."""
        return InterconnectSpec(
            name="nvswitch",
            default_link=LinkSpec(bytes_per_ns=100.0, latency_ns=700.0),
        )

    @staticmethod
    def from_name(name: str) -> "InterconnectSpec":
        """Resolve a CLI preset name (``pcie``, ``nvlink``, ``nvswitch``)."""
        presets = {
            "pcie": InterconnectSpec.pcie_p2p,
            "pcie-p2p": InterconnectSpec.pcie_p2p,
            "nvlink": InterconnectSpec.nvlink,
            "nvswitch": InterconnectSpec.nvswitch,
        }
        try:
            return presets[name]()
        except KeyError:
            raise ValueError(
                f"unknown interconnect preset {name!r}; "
                f"choose from {sorted(presets)}"
            ) from None
