"""A group of simulated devices joined by a modelled interconnect.

Each member is an ordinary :class:`~repro.gpu.device.Device` with its
own clock, memory accounting and stats; nothing about the single-device
path changes.  The group adds the one thing N devices need that one
device does not: peer transfers.  ``transfer(src, dst, nbytes)``
charges the link time on *both* endpoint clocks (sender DMA and
receiver DMA are busy for the copy) and tallies per-pair traffic for
reports.

Time on a group is scatter-gather parallel: the devices' clocks advance
independently, and a barrier (an exchange, the gather) completes when
the *slowest* participant does: the max of their totals, not the sum.
"""

from __future__ import annotations

from .device import Device
from .spec import DeviceSpec, InterconnectSpec
from .stats import ExecutionStats


class DeviceGroup:
    """N modelled devices plus the fabric between them.

    Args:
        spec: the per-member device spec (a homogeneous group, like a
            real multi-GPU node).
        size: number of devices (>= 1).
        interconnect: the peer fabric; defaults to PCIe peer-to-peer.
        tracer: optional tracer shared by every member.
    """

    def __init__(self, spec: DeviceSpec, size: int,
                 interconnect: InterconnectSpec | None = None, tracer=None):
        if size < 1:
            raise ValueError("device group size must be >= 1")
        self.spec = spec
        self.interconnect = interconnect or InterconnectSpec.pcie_p2p()
        self.devices = [Device(spec, tracer=tracer) for _ in range(size)]
        #: accumulated peer traffic, {(src, dst): bytes}
        self.pair_bytes: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self):
        return iter(self.devices)

    # -- peer transfers -------------------------------------------------

    def transfer(self, src: int, dst: int, nbytes: int) -> float:
        """Charge a peer copy from device ``src`` to device ``dst``.

        Returns the link time; both endpoint clocks advance by it.
        """
        if src == dst:
            return 0.0
        link = self.interconnect.link(src, dst)
        time_ns = self.devices[src].transfer_peer(nbytes, link, peer=dst)
        self.devices[dst].transfer_peer(nbytes, link, peer=src)
        self.pair_bytes[(src, dst)] = (
            self.pair_bytes.get((src, dst), 0) + nbytes
        )
        return time_ns

    # -- bookkeeping ----------------------------------------------------

    def reset(self, rebase_peak: bool = False) -> None:
        """Reset every member's clock *independently*.

        Each device rebases its own high-water mark from its own
        standing residency — shard k's peak never leaks into shard
        j's stats (they are separate memories).
        """
        for device in self.devices:
            device.reset(rebase_peak=rebase_peak)

    def snapshots(self) -> list[ExecutionStats]:
        """Per-device stat copies, in device order."""
        return [device.snapshot() for device in self.devices]

    def merged_stats(self) -> ExecutionStats:
        """Group-wide totals: flows add, peaks take the worst device."""
        merged = ExecutionStats()
        for device in self.devices:
            merged.accumulate(device.stats)
        return merged

    def interconnect_bytes(self) -> int:
        """Total bytes moved over peer links (each copy counted once)."""
        return sum(self.pair_bytes.values())
