"""Tests for the orchestrator's concurrent pipelined checkpoint sessions."""

import threading
import time

import pytest

from repro.core.chunking import ChunkPlan, plan_chunks
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource, GPUSource
from repro.errors import ConfigError
from repro.obs.metrics import M
from repro.storage.dram import DRAMBufferPool
from repro.storage.gpu import SimulatedGPU
from repro.storage.ssd import InMemorySSD


def make_orchestrator(num_slots=3, payload_capacity=4096, chunk_size=None,
                      num_chunks=2):
    slot_size = payload_capacity + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(device, num_slots=num_slots, slot_size=slot_size)
    engine = CheckpointEngine(layout, writer_threads=2)
    pool = DRAMBufferPool(
        num_chunks=num_chunks, chunk_size=chunk_size or payload_capacity
    )
    return PCcheckOrchestrator(engine, pool)


class TestChunkPlan:
    def test_single_chunk_when_none(self):
        plan = plan_chunks(1000, None)
        assert plan.ranges() == [(0, 1000)]

    def test_even_chunking(self):
        plan = plan_chunks(300, 100)
        assert plan.ranges() == [(0, 100), (100, 100), (200, 100)]

    def test_trailing_partial_chunk(self):
        plan = plan_chunks(250, 100)
        assert plan.ranges() == [(0, 100), (100, 100), (200, 50)]

    def test_empty_payload_yields_one_empty_chunk(self):
        plan = plan_chunks(0, 100)
        assert plan.ranges() == [(0, 0)]
        assert plan.num_chunks == 1

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            ChunkPlan(total=10, chunk_size=0)


class TestAsyncCheckpoints:
    def test_single_async_checkpoint_commits(self):
        orch = make_orchestrator()
        handle = orch.checkpoint_async(BytesSource(b"async state"), step=1)
        result = handle.wait()
        assert result.committed
        assert recover(orch.engine.layout).payload == b"async state"
        orch.close()

    def test_pipelined_chunked_checkpoint(self):
        orch = make_orchestrator(chunk_size=64, num_chunks=2)
        payload = bytes(range(256)) * 4  # 1024 bytes => 16 chunks, pool of 2
        result = orch.checkpoint_sync(BytesSource(payload), step=1)
        assert result.committed
        assert recover(orch.engine.layout).payload == payload
        orch.close()

    def test_multiple_concurrent_checkpoints(self):
        orch = make_orchestrator(num_slots=4)
        sources = [BytesSource(f"v{i}".encode()) for i in range(6)]
        handles = [orch.checkpoint_async(s, step=i) for i, s in enumerate(sources)]
        results = [handle.wait() for handle in handles]
        assert sum(r.committed for r in results) >= 1
        recovered = recover(orch.engine.layout)
        committed_counters = [r.counter for r in results if r.committed]
        assert recovered.meta.counter == max(committed_counters)
        orch.close()

    def test_wait_for_snapshots_blocks_until_capture_done(self):
        orch = make_orchestrator(chunk_size=256, num_chunks=1)

        release = threading.Event()
        captured = []

        class SlowSource:
            def snapshot_size(self):
                return 512

            def capture_chunk(self, offset, length, dest):
                if offset > 0:
                    release.wait(2.0)
                captured.append(offset)
                dest.fill(b"z" * length)

        handle = orch.checkpoint_async(SlowSource(), step=1)
        waiter_done = threading.Event()

        def update_thread():
            orch.wait_for_snapshots()
            waiter_done.set()

        thread = threading.Thread(target=update_thread)
        thread.start()
        time.sleep(0.05)
        assert not waiter_done.is_set()  # update stalls while capture runs
        release.set()
        thread.join(5.0)
        assert waiter_done.is_set()
        handle.wait()
        assert captured == [0, 256]
        orch.close()

    def test_update_stall_is_accounted(self):
        orch = make_orchestrator()
        orch.checkpoint_async(BytesSource(b"x" * 1000), step=1)
        orch.wait_for_snapshots()
        assert orch.engine.metrics.value(M.UPDATE_STALL_SECONDS) >= 0.0
        orch.close()

    def test_drain_returns_all_results(self):
        orch = make_orchestrator(num_slots=4)
        for step in range(5):
            orch.checkpoint_async(BytesSource(b"d%d" % step), step=step)
        results = orch.drain()
        assert len(results) >= 1
        orch.close()

    def test_capture_failure_aborts_without_corruption(self):
        orch = make_orchestrator(num_slots=2)
        orch.checkpoint_sync(BytesSource(b"good state"), step=1)

        class FailingSource:
            def snapshot_size(self):
                return 100

            def capture_chunk(self, offset, length, dest):
                raise RuntimeError("GPU fell off the bus")

        handle = orch.checkpoint_async(FailingSource(), step=2)
        with pytest.raises(RuntimeError):
            handle.wait()
        # The previous checkpoint must be untouched, and the slot reusable.
        assert recover(orch.engine.layout).payload == b"good state"
        assert orch.checkpoint_sync(BytesSource(b"next state"), step=3).committed
        orch.close()

    def test_close_is_idempotent(self):
        orch = make_orchestrator()
        orch.close()
        orch.close()


class TestGPUSource:
    def test_checkpoint_from_simulated_gpu(self):
        import numpy as np

        orch = make_orchestrator(payload_capacity=8192, chunk_size=1024,
                                 num_chunks=2)
        with SimulatedGPU(memory_capacity=1 << 20, copy_engines=2) as gpu:
            buffer = gpu.alloc("weights", shape=(512,), dtype=np.float32)
            buffer.array[:] = np.arange(512, dtype=np.float32)
            source = GPUSource(gpu, buffer)
            result = orch.checkpoint_sync(source, step=1)
            assert result.committed
            recovered = recover(orch.engine.layout)
            restored = np.frombuffer(recovered.payload, dtype=np.float32)
            assert np.array_equal(restored, buffer.array)
        orch.close()

    def test_gpu_mutation_after_snapshot_does_not_corrupt(self):
        """Captured chunks are point-in-time; later GPU writes must not
        leak into the persisted checkpoint."""
        import numpy as np

        orch = make_orchestrator(payload_capacity=8192)
        with SimulatedGPU(memory_capacity=1 << 20) as gpu:
            buffer = gpu.alloc("weights", shape=(128,), dtype=np.float32)
            buffer.array[:] = 1.0
            handle = orch.checkpoint_async(GPUSource(gpu, buffer), step=1)
            handle.snapshot_done.wait(5.0)
            buffer.array[:] = 2.0  # the "next iteration's update"
            handle.wait()
            recovered = recover(orch.engine.layout)
            restored = np.frombuffer(recovered.payload, dtype=np.float32)
            assert np.all(restored == 1.0)
        orch.close()


class TestCopyBudget:
    def test_one_staging_copy_per_checkpoint(self):
        from repro.obs.metrics import M

        orch = make_orchestrator(chunk_size=128, num_chunks=2)
        payload = bytes(range(256)) * 8  # 2048 bytes => 16 chunks
        orch.checkpoint_sync(BytesSource(payload), step=1)
        orch.checkpoint_sync(BytesSource(payload), step=2)
        # The capture stage's staging copy is the only copy the pipeline
        # makes: exactly 1x the payload per checkpoint.
        copied = orch.engine.metrics.value(M.BYTES_COPIED)
        assert copied == 2 * len(payload)
        orch.close()

    def test_bytes_source_accepts_view_without_copy(self):
        backing = bytearray(b"mutable state bytes")
        source = BytesSource(memoryview(backing))
        orch = make_orchestrator()
        orch.checkpoint_sync(source, step=1)
        assert recover(orch.engine.layout).payload == bytes(backing)
        orch.close()


class TestChunkViews:
    def test_iter_chunk_views_matches_plan(self):
        from repro.core.chunking import iter_chunk_views

        raw = bytearray(range(250))
        plan = plan_chunks(250, 100)
        views = list(iter_chunk_views(plan, raw))
        assert [(off, len(view)) for off, view in views] == [
            (0, 100), (100, 100), (200, 50)
        ]
        # Views alias the payload -- no copies were made.
        raw[0] = 99
        assert views[0][1][0] == 99

    def test_iter_chunk_views_rejects_length_mismatch(self):
        from repro.core.chunking import iter_chunk_views

        with pytest.raises(ConfigError):
            list(iter_chunk_views(plan_chunks(10, 5), b"abc"))
