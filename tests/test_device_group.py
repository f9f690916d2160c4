"""DeviceGroup semantics: peer transfers, independent clocks, and the
per-member reset accounting sharded queries depend on."""

from __future__ import annotations

import pytest

from repro.gpu import DeviceSpec
from repro.gpu.group import DeviceGroup
from repro.gpu.spec import InterconnectSpec, LinkSpec


def make_group(size=3, interconnect=None):
    return DeviceGroup(DeviceSpec.v100(), size, interconnect=interconnect)


def test_transfer_charges_both_endpoint_clocks():
    group = make_group()
    link = group.interconnect.link(0, 1)
    nbytes = 1 << 20
    time_ns = group.transfer(0, 1, nbytes)
    assert time_ns == pytest.approx(link.transfer_ns(nbytes))
    # sender and receiver DMA engines are busy for the whole copy
    assert group.devices[0].stats.peer_time_ns == pytest.approx(time_ns)
    assert group.devices[1].stats.peer_time_ns == pytest.approx(time_ns)
    assert group.devices[0].stats.peer_bytes == nbytes
    assert group.devices[1].stats.peer_bytes == nbytes
    # the bystander's clock never moved
    assert group.devices[2].stats.total_ns == 0.0


def test_self_transfer_is_free():
    group = make_group()
    assert group.transfer(1, 1, 1 << 30) == 0.0
    assert group.devices[1].stats.total_ns == 0.0
    assert group.interconnect_bytes() == 0


def test_pair_bytes_counts_each_copy_once():
    group = make_group()
    group.transfer(0, 1, 100)
    group.transfer(0, 1, 50)
    group.transfer(1, 0, 25)
    assert group.pair_bytes == {(0, 1): 150, (1, 0): 25}
    assert group.interconnect_bytes() == 175


def test_reset_is_per_member_no_peak_leak():
    """Shard k's high-water mark must never leak into shard j's stats
    across a reset: each device rebases from its *own* residency."""
    group = make_group(size=3)
    group.devices[0].alloc(1_000_000)
    group.devices[1].alloc(64)
    group.transfer(0, 2, 4096)
    group.reset(rebase_peak=True)
    assert group.devices[0].stats.peak_device_bytes == 1_000_000
    assert group.devices[1].stats.peak_device_bytes == 64
    assert group.devices[2].stats.peak_device_bytes == 0
    # clocks are cleared everywhere
    assert all(d.stats.total_ns == 0.0 for d in group)
    # without rebasing, even standing residency reports zero
    group.reset(rebase_peak=False)
    assert group.devices[0].stats.peak_device_bytes == 0


def test_makespan_is_slowest_clock_not_sum():
    group = make_group(size=3)
    group.devices[0].launch("scan", 1000)
    group.devices[1].launch("scan", 1000)
    group.devices[1].launch("scan", 1000)
    snaps = group.snapshots()
    expected = max(s.total_ns for s in snaps)
    assert DeviceGroup.makespan_ns(snaps) == expected
    assert expected < sum(s.total_ns for s in snaps)
    assert DeviceGroup.makespan_ns([]) == 0.0


def test_merged_stats_flows_add_peaks_take_worst():
    group = make_group(size=2)
    group.devices[0].alloc(300)
    group.devices[1].alloc(700)
    group.devices[0].launch("scan", 10)
    group.devices[1].launch("scan", 10)
    merged = group.merged_stats()
    assert merged.kernel_launches == 2
    assert merged.peak_device_bytes == 700  # level, not a flow: max
    assert merged.kernel_time_ns == pytest.approx(
        group.devices[0].stats.kernel_time_ns + group.devices[1].stats.kernel_time_ns
    )


def test_group_size_validation():
    with pytest.raises(ValueError):
        make_group(size=0)


def test_a100_preset():
    spec = DeviceSpec.a100()
    v100 = DeviceSpec.v100()
    assert spec.name == "a100-sxm-80gb"
    assert spec.memory_bytes == 80 * 2**30
    # strictly newer hardware: more threads, faster everything
    assert spec.threads > v100.threads
    assert spec.iteration_ns < v100.iteration_ns
    assert spec.pcie_bytes_per_ns > v100.pcie_bytes_per_ns
    assert DeviceSpec.a100(capacity_scale=0.5).memory_bytes == 40 * 2**30


def test_interconnect_presets_and_overrides():
    assert InterconnectSpec.from_name("pcie").name == "pcie-p2p"
    assert InterconnectSpec.from_name("nvlink").name == "nvlink"
    assert InterconnectSpec.from_name("nvswitch").name == "nvswitch"
    with pytest.raises(ValueError):
        InterconnectSpec.from_name("carrier-pigeon")
    # fabric ordering: every preset step is strictly faster
    pcie = InterconnectSpec.pcie_p2p().link(0, 1)
    nvlink = InterconnectSpec.nvlink().link(0, 1)
    nvswitch = InterconnectSpec.nvswitch().link(0, 1)
    nbytes = 1 << 20
    assert (
        nvswitch.transfer_ns(nbytes)
        < nvlink.transfer_ns(nbytes)
        < pcie.transfer_ns(nbytes)
    )
    # per-pair override wins over the default link
    fast = LinkSpec(bytes_per_ns=1000.0, latency_ns=1.0)
    spec = InterconnectSpec(
        name="custom",
        default_link=LinkSpec(bytes_per_ns=1.0, latency_ns=10_000.0),
        overrides=((0, 1, fast),),
    )
    assert spec.link(0, 1) is fast
    assert spec.link(1, 0) is spec.default_link
