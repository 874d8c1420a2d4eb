"""Tests for the pinned DRAM buffer pool and the simulated GPU."""

import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.errors import EngineError, OutOfSpaceError, StorageError
from repro.storage.device import copy_into
from repro.storage.dram import DRAMBufferPool, PinnedBuffer
from repro.storage.gpu import GPUBuffer, SimulatedGPU


class TestPinnedBuffer:
    def test_fill_and_view(self):
        buffer = PinnedBuffer(index=0, size=16)
        buffer.fill(b"hello")
        assert buffer.view() == b"hello"
        assert buffer.used == 5

    def test_oversized_fill_rejected(self):
        buffer = PinnedBuffer(index=0, size=4)
        with pytest.raises(EngineError):
            buffer.fill(b"too long")

    def test_refill_shrinks_view(self):
        buffer = PinnedBuffer(index=0, size=16)
        buffer.fill(b"longer-data")
        buffer.fill(b"ab")
        assert buffer.view() == b"ab"


    def test_append_lands_after_staged_bytes(self):
        buffer = PinnedBuffer(index=0, size=16)
        buffer.fill(b"head-")
        buffer.append(memoryview(b"tail"))
        buffer.append(b"")
        assert buffer.view() == b"head-tail"
        with pytest.raises(EngineError):
            buffer.append(b"x" * 8)

    def test_staging_is_one_memcpy_not_one_call(self):
        """`bytearray[a:b] = view` allocates a payload-sized temporary and
        copies twice; BYTES_COPIED counts calls, so only the allocator can
        tell.  fill/append of 8 MiB must allocate (almost) nothing."""
        size = 8 << 20
        payload = memoryview(np.arange(size, dtype=np.uint8))
        buffer = PinnedBuffer(index=0, size=2 * size)
        tracemalloc.start()
        try:
            buffer.fill(payload)
            buffer.append(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
        assert buffer.view()[:size] == payload
        assert buffer.view()[size:] == payload


class TestCopyInto:
    def test_copies_at_offset_and_leaves_the_rest(self):
        dest = bytearray(b"." * 10)
        copy_into(dest, 3, memoryview(b"abcd"))
        assert dest == b"...abcd..."

    def test_empty_view_is_a_noop(self):
        dest = bytearray(b"xy")
        copy_into(dest, 2, memoryview(b""))
        assert dest == b"xy"

    def test_out_of_range_and_read_only_destinations_raise(self):
        with pytest.raises(ValueError):
            copy_into(bytearray(4), 2, memoryview(b"abcd"))
        with pytest.raises(ValueError):
            copy_into(bytes(4), 0, memoryview(b"abcd"))


class TestDRAMBufferPool:
    def test_acquire_release_cycle(self):
        pool = DRAMBufferPool(num_chunks=2, chunk_size=64)
        a = pool.acquire()
        b = pool.acquire()
        assert pool.free_chunks == 0
        pool.release(a)
        assert pool.free_chunks == 1
        pool.release(b)
        assert pool.free_chunks == 2

    def test_capacity_bytes(self):
        pool = DRAMBufferPool(num_chunks=4, chunk_size=128)
        assert pool.capacity_bytes == 512

    def test_try_acquire_nonblocking(self):
        pool = DRAMBufferPool(num_chunks=1, chunk_size=8)
        assert pool.try_acquire() is not None
        assert pool.try_acquire() is None

    def test_acquire_times_out_on_empty_pool(self):
        pool = DRAMBufferPool(num_chunks=1, chunk_size=8)
        pool.acquire()
        assert pool.acquire(timeout=0.02) is None

    def test_acquire_blocks_until_release(self):
        pool = DRAMBufferPool(num_chunks=1, chunk_size=8)
        held = pool.acquire()

        def release_later():
            time.sleep(0.03)
            pool.release(held)

        thread = threading.Thread(target=release_later)
        thread.start()
        got = pool.acquire(timeout=2.0)
        thread.join()
        assert got is not None

    def test_wait_time_is_accounted(self):
        pool = DRAMBufferPool(num_chunks=1, chunk_size=8)
        pool.acquire()
        pool.acquire(timeout=0.03)
        assert pool.wait_seconds >= 0.02

    def test_foreign_buffer_release_rejected(self):
        pool = DRAMBufferPool(num_chunks=1, chunk_size=8)
        with pytest.raises(EngineError):
            pool.release(PinnedBuffer(index=0, size=16))

    def test_double_release_rejected(self):
        pool = DRAMBufferPool(num_chunks=1, chunk_size=8)
        buffer = pool.acquire()
        pool.release(buffer)
        with pytest.raises(EngineError):
            pool.release(buffer)

    def test_invalid_construction_rejected(self):
        with pytest.raises(EngineError):
            DRAMBufferPool(num_chunks=0, chunk_size=8)
        with pytest.raises(EngineError):
            DRAMBufferPool(num_chunks=1, chunk_size=0)


class TestSimulatedGPU:
    def test_alloc_and_capacity_accounting(self):
        with SimulatedGPU(memory_capacity=1024) as gpu:
            buffer = gpu.alloc("w", shape=(64,), dtype=np.float32)
            assert buffer.nbytes == 256
            assert gpu.used_bytes == 256
            gpu.free(buffer)
            assert gpu.used_bytes == 0

    def test_over_allocation_rejected(self):
        with SimulatedGPU(memory_capacity=100) as gpu:
            with pytest.raises(OutOfSpaceError):
                gpu.alloc("big", shape=(1000,), dtype=np.float32)

    def test_duplicate_name_rejected(self):
        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            gpu.alloc("w", shape=(4,))
            with pytest.raises(StorageError):
                gpu.alloc("w", shape=(4,))

    def test_wrap_adopts_existing_array(self):
        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            array = np.arange(8, dtype=np.float32)
            buffer = gpu.wrap("adopted", array)
            array[0] = 42.0
            assert buffer.array[0] == 42.0  # zero-copy

    def test_copy_to_host_snapshots_at_submission(self):
        from repro.storage.dram import PinnedBuffer

        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            buffer = gpu.alloc("w", shape=(16,), dtype=np.float32)
            buffer.array[:] = 1.0
            dest = PinnedBuffer(index=0, size=buffer.nbytes)
            future = gpu.copy_to_host_async(buffer, 0, buffer.nbytes, dest)
            buffer.array[:] = 2.0  # mutate after submission
            future.result()
            restored = np.frombuffer(dest.view(), dtype=np.float32)
            assert np.all(restored == 1.0)

    def test_partial_range_copy(self):
        from repro.storage.dram import PinnedBuffer

        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            buffer = gpu.alloc("w", shape=(16,), dtype=np.float32)
            buffer.array[:] = np.arange(16, dtype=np.float32)
            dest = PinnedBuffer(index=0, size=32)
            gpu.copy_to_host(buffer, offset=16, length=32, destination=dest)
            restored = np.frombuffer(dest.view(), dtype=np.float32)
            assert np.array_equal(restored, np.arange(4, 12, dtype=np.float32))

    def test_out_of_range_copy_rejected(self):
        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            buffer = gpu.alloc("w", shape=(4,), dtype=np.float32)
            with pytest.raises(StorageError):
                buffer.read_range(8, 100)

    def test_copy_from_host_roundtrip(self):
        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            buffer = gpu.alloc("w", shape=(8,), dtype=np.float32)
            payload = np.arange(8, dtype=np.float32).tobytes()
            gpu.copy_from_host(buffer, payload)
            assert np.array_equal(buffer.array,
                                  np.arange(8, dtype=np.float32))

    def test_copy_from_host_size_mismatch_rejected(self):
        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            buffer = gpu.alloc("w", shape=(8,), dtype=np.float32)
            with pytest.raises(StorageError):
                gpu.copy_from_host(buffer, b"short")

    def test_pcie_throttle_slows_copies(self):
        from repro.storage.dram import PinnedBuffer

        nbytes = 1 << 20
        with SimulatedGPU(memory_capacity=1 << 22,
                          pcie_bandwidth=50e6) as gpu:  # ~21 ms
            buffer = gpu.alloc("w", shape=(nbytes // 4,), dtype=np.float32)
            dest = PinnedBuffer(index=0, size=nbytes)
            start = time.monotonic()
            gpu.copy_to_host(buffer, 0, nbytes, dest)
            assert time.monotonic() - start >= 0.015

    def test_closed_gpu_rejects_copies(self):
        from repro.storage.dram import PinnedBuffer

        gpu = SimulatedGPU(memory_capacity=1 << 20)
        buffer = gpu.alloc("w", shape=(4,))
        gpu.close()
        with pytest.raises(StorageError):
            gpu.copy_to_host_async(buffer, 0, 16, PinnedBuffer(0, 16))

    def test_synchronize_waits_for_in_flight_copies(self):
        from repro.storage.dram import PinnedBuffer

        with SimulatedGPU(memory_capacity=1 << 22, copy_engines=2,
                          pcie_bandwidth=100e6) as gpu:
            buffer = gpu.alloc("w", shape=(1 << 18,), dtype=np.float32)
            futures = [
                gpu.copy_to_host_async(buffer, 0, 1 << 20,
                                       PinnedBuffer(i, 1 << 20))
                for i in range(3)
            ]
            gpu.synchronize()
            assert all(f.done() for f in futures)
