"""The persistent writer pool: reuse, shutdown, crash propagation, and
the fence contract of a ``submit``/``reap`` batch — reap waits for the
writes, one covering fence makes the whole batch durable."""

import threading

import pytest

from repro.core.writer import ParallelWriter
from repro.errors import CrashedDeviceError, TransientIOError
from repro.storage.faults import (
    CrashBudgetExhausted,
    CrashPointDevice,
    OffsetCrashSchedule,
    OpCountSchedule,
    TransientFaultDevice,
)
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD

CAPACITY = 1 << 16




class TestPoolReuse:
    def test_no_thread_growth_across_many_persists(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=4)
        payload = bytes(range(256)) * 16
        for _ in range(100):
            writer.persist(0, payload)
        assert writer.threads_started == 4
        assert writer.pool_size == 4
        assert writer.bytes_persisted == 100 * len(payload)
        writer.close()

    def test_pool_is_lazy_until_first_multishare_persist(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=4)
        assert writer.pool_size == 0
        writer.persist(0, b"x")  # single share: stays inline
        assert writer.pool_size == 0
        writer.persist(0, bytes(4096))
        assert writer.pool_size == 4
        writer.close()

    def test_concurrent_persists_share_the_pool(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=4)
        payloads = [bytes([i]) * 2048 for i in range(8)]
        errors = []

        def one(index):
            try:
                writer.persist(index * 2048, payloads[index])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        callers = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join()
        assert errors == []
        assert writer.threads_started == 4
        for index, payload in enumerate(payloads):
            assert device.read(index * 2048, 2048) == payload
        writer.close()


class TestPoolShutdown:
    def test_close_joins_workers(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=3)
        writer.persist(0, bytes(4096))
        workers = list(writer._workers)
        assert len(workers) == 3
        assert all(worker.is_alive() for worker in workers)
        writer.close()
        assert writer.closed
        assert writer.pool_size == 0
        assert not any(worker.is_alive() for worker in workers)

    def test_close_is_idempotent(self):
        writer = ParallelWriter(InMemorySSD(CAPACITY), num_threads=2)
        writer.persist(0, bytes(1024))
        writer.close()
        writer.close()

    def test_persist_after_close_runs_inline(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=4)
        writer.persist(0, bytes(1024))
        writer.close()
        payload = bytes([7]) * 4096
        writer.persist(0, payload)
        assert writer.threads_started == 4  # no respawn
        assert device.read(0, 4096) == payload
        assert device.durable_snapshot()[:4096] == payload

    def test_context_manager_closes(self):
        device = InMemorySSD(CAPACITY)
        with ParallelWriter(device, num_threads=2) as writer:
            writer.persist(0, bytes(2048))
        assert writer.closed


class TestCrashPropagation:
    def test_injected_crash_propagates_to_caller(self):
        inner = InMemorySSD(CAPACITY)
        device = CrashPointDevice(inner, schedule=OpCountSchedule(2))
        writer = ParallelWriter(device, num_threads=4)
        with pytest.raises(CrashedDeviceError):
            writer.persist(0, bytes(8192))

    def test_workers_survive_the_crash_exception(self):
        inner = InMemorySSD(CAPACITY)
        # An offset schedule fires exactly once, so the same wrapper can
        # keep serving ops after the device recovers.
        device = CrashPointDevice(
            inner, schedule=OffsetCrashSchedule(0, CAPACITY, occurrence=1)
        )
        writer = ParallelWriter(device, num_threads=4)
        with pytest.raises(CrashBudgetExhausted):
            writer.persist(0, bytes(8192))
        # The device died, not the pool: after recovery the same writer
        # (same threads) persists successfully.
        inner.recover()
        payload = bytes([3]) * 8192
        writer.persist(0, payload)
        assert writer.threads_started == 4
        assert inner.read(0, 8192) == payload
        writer.close()

    def test_crashed_persist_does_not_count_bytes(self):
        inner = InMemorySSD(CAPACITY)
        device = CrashPointDevice(inner, schedule=OpCountSchedule(0))
        writer = ParallelWriter(device, num_threads=2)
        with pytest.raises(CrashedDeviceError):
            writer.persist(0, bytes(4096))
        assert writer.bytes_persisted == 0
        writer.close()

    def test_transient_fault_propagates_and_retry_succeeds(self):
        device = TransientFaultDevice(InMemorySSD(CAPACITY), kind="write",
                                      occurrence=0, times=1)
        writer = ParallelWriter(device, num_threads=2)
        payload = bytes([9]) * 4096
        with pytest.raises(TransientIOError):
            writer.persist(0, payload)
        writer.persist(0, payload)
        assert device.inner.read(0, 4096) == payload
        writer.close()


class TestFenceCoalescing:
    def test_scattered_pieces_share_one_covering_fence(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=2, fence_mode="single")
        pieces = [(i * 1024, bytes([i]) * 1024) for i in range(8)]
        before = device.stats.persist_ops
        writer.reap(writer.submit(pieces))
        # Reaped means written, not durable: the caller's one covering
        # fence makes every piece durable at once.
        assert device.stats.persist_ops == before
        assert device.unpersisted_bytes == 8 * 1024
        device.persist(0, 8 * 1024)
        assert device.stats.persist_ops - before == 1
        for offset, payload in pieces:
            assert device.read(offset, 1024) == payload
            assert device.durable_snapshot()[offset : offset + 1024] == payload
        writer.close()

    def test_scattered_pieces_keep_per_thread_fences_on_pmem(self):
        device = SimulatedPMEM(CAPACITY)
        writer = ParallelWriter(device, num_threads=2)
        assert writer.fence_mode == "per-thread"
        pieces = [(0, bytes(2048)), (2048, bytes(2048))]
        before = device.stats.persist_ops
        writer.reap(writer.submit(pieces))
        # Two pieces x two shares: every share fences its own range.
        assert device.stats.persist_ops - before == 4
        assert device.unpersisted_bytes == 0
        writer.close()

    def test_scattered_empty_pieces_are_dropped(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=2)
        before = device.stats.persist_ops
        writer.reap(writer.submit([(0, b""), (128, b"")]))
        assert device.stats.persist_ops == before
        assert writer.bytes_persisted == 0
        writer.close()

    def test_scattered_accounts_total_bytes(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=3)
        writer.reap(writer.submit([(0, bytes(1000)), (1000, bytes(500))]))
        assert writer.bytes_persisted == 1500
        writer.close()

    def test_single_piece_batch_matches_plain_persist(self):
        device = InMemorySSD(CAPACITY)
        writer = ParallelWriter(device, num_threads=4, fence_mode="single")
        payload = bytes(range(256)) * 8
        before = device.stats.persist_ops
        writer.reap(writer.submit([(64, payload)]))
        device.persist(64, len(payload))
        assert device.stats.persist_ops - before == 1
        before = device.stats.persist_ops
        writer.persist(64, payload)
        assert device.stats.persist_ops - before == 1
        assert device.read(64, len(payload)) == payload
        assert device.unpersisted_bytes == 0
        writer.close()
