"""Tests for the simulated device, memory pools, and statistics."""

import pytest

from repro.errors import DeviceMemoryError
from repro.gpu import Device, DeviceSpec, MemoryPool, PoolSet, RawDeviceAllocator


def small_device(capacity=1000):
    return Device(DeviceSpec.v100().with_memory(capacity))


class TestDeviceClock:
    def test_launch_charges_overhead_plus_iterations(self):
        device = Device(DeviceSpec.v100())
        spec = device.spec
        ns = device.launch("k", spec.threads * 3)
        assert ns == pytest.approx(spec.launch_overhead_ns + 3 * spec.iteration_ns)

    def test_empty_launch_costs_constant(self):
        device = Device(DeviceSpec.v100())
        assert device.launch("k", 0) == device.spec.launch_overhead_ns

    def test_work_factor(self):
        device = Device(DeviceSpec.v100())
        base = device.launch("k", device.spec.threads)
        double = device.launch("k", device.spec.threads, work=2.0)
        assert double - device.spec.launch_overhead_ns == pytest.approx(
            2 * (base - device.spec.launch_overhead_ns)
        )

    def test_transfer_times(self):
        device = Device(DeviceSpec.v100())
        ns = device.transfer_h2d(1200)
        assert ns == pytest.approx(1200 / device.spec.pcie_bytes_per_ns)
        device.transfer_d2h(600)
        assert device.stats.d2h_bytes == 600

    def test_materialize(self):
        device = Device(DeviceSpec.v100())
        device.materialize(1000)
        assert device.stats.materialize_bytes == 1000

    def test_stats_tags(self):
        device = Device(DeviceSpec.v100())
        device.launch("scan", 10)
        device.launch("scan", 10)
        device.launch("join", 10)
        assert device.stats.launches_by_tag == {"scan": 2, "join": 1}

    def test_snapshot_diff(self):
        device = Device(DeviceSpec.v100())
        device.launch("a", 10)
        before = device.snapshot()
        device.launch("a", 10)
        after = device.snapshot()
        assert after.kernel_launches - before.kernel_launches == 1
        assert device.stats.kernel_launches == 2  # the snapshot is a copy

    def test_transfer_fraction(self):
        device = Device(DeviceSpec.v100())
        device.launch("a", 10)
        device.transfer_h2d(10**6)
        assert 0 < device.stats.transfer_fraction < 1


class TestDeviceMemory:
    def test_alloc_free(self):
        device = small_device()
        device.alloc(400)
        assert device.memory_in_use == 400
        device.free(400)
        assert device.memory_in_use == 0

    def test_oom_raises(self):
        device = small_device(100)
        with pytest.raises(DeviceMemoryError) as excinfo:
            device.alloc(200)
        assert excinfo.value.requested == 200

    def test_oom_boundary(self):
        device = small_device(100)
        device.alloc(100)  # exactly fits
        with pytest.raises(DeviceMemoryError):
            device.alloc(1)

    def test_peak_tracking(self):
        device = small_device()
        device.alloc(600)
        device.free(600)
        device.alloc(100)
        assert device.stats.peak_device_bytes == 600

    def test_over_free_rejected(self):
        device = small_device()
        with pytest.raises(ValueError):
            device.free(10)

    def test_raw_alloc_charges_malloc(self):
        device = small_device()
        device.alloc(10, raw=True)
        assert device.stats.malloc_calls == 1
        assert device.stats.malloc_time_ns == device.spec.malloc_overhead_ns


class TestMemoryPool:
    def test_linear_alloc(self):
        device = small_device()
        pool = MemoryPool(device, "p")
        assert pool.alloc(100) == 0
        assert pool.alloc(50) == 100
        assert pool.tail == 150

    def test_grows_device_usage_lazily(self):
        device = small_device()
        pool = MemoryPool(device, "p")
        pool.alloc(100)
        assert device.memory_in_use == 100
        mark = pool.mark()
        pool.alloc(200)
        pool.restore(mark)
        assert pool.tail == 100
        # high-water mark stays reserved (pools keep memory)
        assert device.memory_in_use == 300
        pool.alloc(150)  # fits in reserved space: no device growth
        assert device.memory_in_use == 300

    def test_mark_restore_discipline(self):
        device = small_device()
        pool = MemoryPool(device, "p")
        mark = pool.mark()
        pool.alloc(10)
        pool.restore(mark)
        assert pool.tail == 0

    def test_restore_forward_rejected(self):
        device = small_device()
        pool = MemoryPool(device, "p")
        pool.alloc(10)
        mark = pool.mark()
        pool.restore(mark)
        pool.restore(mark)  # idempotent
        pool2_mark = mark
        pool.alloc(5)
        pool.restore(pool2_mark)
        with pytest.raises(ValueError):
            # a mark ahead of the tail cannot be restored
            ahead = MemoryPool(device, "p").mark()
            pool_other = MemoryPool(device, "q")
            pool_other.restore(ahead)

    def test_wrong_pool_mark_rejected(self):
        device = small_device()
        a = MemoryPool(device, "a")
        b = MemoryPool(device, "b")
        with pytest.raises(ValueError):
            b.restore(a.mark())

    def test_pool_oom_propagates(self):
        device = small_device(100)
        pool = MemoryPool(device, "p")
        with pytest.raises(DeviceMemoryError):
            pool.alloc(200)

    def test_host_side_pool_ignores_device(self):
        device = small_device(100)
        pool = MemoryPool(device, "meta", host_side=True)
        pool.alloc(10_000)  # exceeds device capacity: fine, host memory
        assert device.memory_in_use == 0

    def test_release_returns_memory(self):
        device = small_device()
        pool = MemoryPool(device, "p")
        pool.alloc(500)
        pool.release()
        assert device.memory_in_use == 0
        assert pool.tail == 0


class TestPoolSet:
    def test_mark_restore_all(self):
        device = small_device()
        pools = PoolSet(device)
        pools.meta.alloc(8)
        pools.intermediate.alloc(100)
        marks = pools.mark_all()
        pools.meta.alloc(8)
        pools.intermediate.alloc(100)
        pools.restore_all(marks)
        assert pools.meta.tail == 8
        assert pools.intermediate.tail == 100

    def test_inter_kernel_cleared(self):
        device = small_device()
        pools = PoolSet(device)
        pools.inter_kernel.alloc(64)
        pools.clear_inter_kernel()
        assert pools.inter_kernel.tail == 0

    def test_release_all(self):
        device = small_device()
        pools = PoolSet(device)
        pools.intermediate.alloc(100)
        pools.inter_kernel.alloc(50)
        pools.release_all()
        assert device.memory_in_use == 0


class TestRawAllocator:
    def test_charges_per_call(self):
        device = small_device()
        raw = RawDeviceAllocator(device)
        raw.alloc(10)
        raw.alloc(20)
        assert device.stats.malloc_calls == 2
        raw.free_all()
        assert device.stats.malloc_calls == 4
        assert device.memory_in_use == 0
