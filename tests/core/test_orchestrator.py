"""Tests for the orchestrator's concurrent pipelined checkpoint sessions."""

import sys
import threading
import time

import pytest

from repro.core.chunking import ChunkPlan, plan_chunks
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE, decode_commit_record
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource, GPUSource
from repro.errors import ConfigError, CrashedDeviceError, PCcheckError
from repro.obs.metrics import M
from repro.obs.trace import Tracer
from repro.storage.device import DeviceWrapper
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


class HoldFirstFence(DeviceWrapper):
    """Holds the first fence after :meth:`arm` — the first checkpoint's
    payload fence — until ``release`` is set, then raises ``fail`` (if
    given) instead of fencing.  Logs the counter of every commit record
    written."""

    def __init__(self, inner, fail=None):
        super().__init__(inner, "hold-first-fence")
        self.fail = fail
        self.held = threading.Event()
        self.release = threading.Event()
        self.commit_counters = []
        self._armed = False

    def arm(self):
        self._armed = True

    def write(self, offset, data):
        super().write(offset, data)
        record = decode_commit_record(bytes(data)) if len(data) == RECORD_SIZE else None
        if record is not None:
            self.commit_counters.append(record.counter)

    def persist(self, offset, length):
        if self._armed:
            self._armed = False
            self.held.set()
            assert self.release.wait(10.0)
            if self.fail is not None:
                raise self.fail
        super().persist(offset, length)


class FailAfterGate(BytesSource):
    """A source whose capture raises once ``gate`` opens."""

    def __init__(self, data, gate):
        super().__init__(data)
        self._gate = gate

    def capture_chunk(self, offset, length, dest):
        assert self._gate.wait(10.0)
        raise RuntimeError("capture failed")


@pytest.fixture(params=[None, 64], ids=["one-chunk", "pipelined"])
def ordered(request):
    """An orchestrator over a :class:`HoldFirstFence` device, traced so a
    test can see a checkpoint wait for its commit turn."""
    payload_capacity = 512
    slot_size = payload_capacity + RECORD_SIZE
    geometry = Geometry(num_slots=3, slot_size=slot_size)
    device = HoldFirstFence(InMemorySSD(capacity=geometry.total_size))
    layout = DeviceLayout.format(device, num_slots=3, slot_size=slot_size)
    tracer = Tracer()
    engine = CheckpointEngine(layout, writer_threads=2, tracer=tracer)
    pool = DRAMBufferPool(num_chunks=2,
                          chunk_size=request.param or payload_capacity)
    orch = PCcheckOrchestrator(engine, pool)
    yield orch, device, tracer
    device.release.set()
    orch.close()


def wait_for_commit_turn(handle, tracer):
    """Block until ``handle`` either finished or is waiting for an earlier
    checkpoint to settle before it commits."""
    deadline = time.monotonic() + 10.0
    while not (handle.done() or tracer.spans("commit_wait")):
        assert time.monotonic() < deadline, "checkpoint neither waited nor finished"
        time.sleep(0.002)


class TestCommitOrder:
    """Checkpoints commit in the order they were started: a newer one that
    finished writing first waits for the older one's commit."""

    def test_a_checkpoint_that_finishes_writing_first_commits_second(self, ordered):
        orch, device, tracer = ordered
        device.arm()
        first = orch.checkpoint_async(BytesSource(b"a" * 300), step=1)
        assert device.held.wait(10.0)  # first is fencing its payload
        second = orch.checkpoint_async(BytesSource(b"b" * 300), step=2)
        wait_for_commit_turn(second, tracer)
        device.release.set()
        results = [first.wait(10.0), second.wait(10.0)]
        assert [r.committed for r in results] == [True, True]
        assert orch.engine.metrics.value(M.SUPERSEDED) == 0
        assert device.commit_counters == sorted(device.commit_counters)
        assert sorted(set(device.commit_counters)) == [first.counter, second.counter]
        assert recover(orch.engine.layout).payload == b"b" * 300

    def test_a_failed_capture_lets_the_next_checkpoint_commit(self, ordered):
        orch, device, tracer = ordered
        gate = threading.Event()
        first = orch.checkpoint_async(FailAfterGate(b"a" * 300, gate), step=1)
        second = orch.checkpoint_async(BytesSource(b"b" * 300), step=2)
        wait_for_commit_turn(second, tracer)
        gate.set()
        assert second.wait(10.0).committed
        with pytest.raises(RuntimeError, match="capture failed"):
            first.wait(10.0)
        assert recover(orch.engine.layout).payload == b"b" * 300

    def test_a_crashed_fence_does_not_hang_the_next_checkpoint(self, ordered):
        orch, device, tracer = ordered
        device.fail = CrashedDeviceError("power lost at the payload fence")
        device.arm()
        first = orch.checkpoint_async(BytesSource(b"a" * 300), step=1)
        assert device.held.wait(10.0)
        second = orch.checkpoint_async(BytesSource(b"b" * 300), step=2)
        wait_for_commit_turn(second, tracer)
        device.release.set()
        with pytest.raises(CrashedDeviceError):
            first.wait(10.0)
        try:
            second.wait(10.0)  # settles either way; a timeout fails the test
        except PCcheckError:
            pass
        assert second.done()

    def test_concurrent_starters_all_settle_and_the_newest_commit_survives(self):
        orch = make_orchestrator(num_slots=4, payload_capacity=512, chunk_size=64)
        handles, lock = [], threading.Lock()

        def trainer(worker):
            for i in range(8):
                handle = orch.checkpoint_async(
                    BytesSource(bytes([worker * 8 + i]) * 200), step=worker * 8 + i)
                with lock:
                    handles.append(handle)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=trainer, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            results = [handle.wait(30.0) for handle in handles]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 32
        newest = max(r.counter for r in results if r.committed)
        assert recover(orch.engine.layout).meta.counter == newest
        orch.close()

    def test_concurrent_starters_never_supersede_each_other(self):
        """Threads starting checkpoints on one orchestrator at once (two
        services sharing a pool seat): each checkpoint's counter and its
        place in the commit order are taken together, so none loses the
        CAS to a newer one that committed first."""
        orch = make_orchestrator(num_slots=3, payload_capacity=512)
        results, lock = [], threading.Lock()

        def trainer(worker):
            handles = [orch.checkpoint_async(BytesSource(bytes([worker]) * 200),
                                             step=i) for i in range(100)]
            settled = [handle.wait(30.0) for handle in handles]
            with lock:
                results.extend(settled)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=trainer, args=(w,))
                       for w in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 300
        assert all(result.committed for result in results)
        assert orch.engine.metrics.value(M.SUPERSEDED) == 0
        orch.close()

    def test_a_blocking_checkpoint_commits_after_an_earlier_async_one(
        self, ordered
    ):
        orch, device, tracer = ordered
        device.arm()
        first = orch.checkpoint_async(BytesSource(b"a" * 300), step=1)
        assert device.held.wait(10.0)  # first is fencing its payload
        outcome = {}
        blocking = threading.Thread(target=lambda: outcome.setdefault(
            "result", orch.checkpoint_sync(BytesSource(b"b" * 300), step=2)))
        blocking.start()
        deadline = time.monotonic() + 10.0
        while not tracer.spans("commit_wait"):
            assert time.monotonic() < deadline, "the blocking one never waited"
            time.sleep(0.002)
        device.release.set()
        blocking.join(10.0)
        assert not blocking.is_alive()
        assert first.wait(10.0).committed and outcome["result"].committed
        assert orch.engine.metrics.value(M.SUPERSEDED) == 0
        assert device.commit_counters == sorted(device.commit_counters)
        assert recover(orch.engine.layout).payload == b"b" * 300

    def test_an_async_checkpoint_commits_after_an_earlier_blocking_one(
        self, ordered
    ):
        orch, device, tracer = ordered
        device.arm()
        outcome = {}
        blocking = threading.Thread(target=lambda: outcome.setdefault(
            "result", orch.checkpoint_sync(BytesSource(b"a" * 300), step=1)))
        blocking.start()
        assert device.held.wait(10.0)  # the blocking one is fencing
        second = orch.checkpoint_async(BytesSource(b"b" * 300), step=2)
        wait_for_commit_turn(second, tracer)
        # drain() waits for the blocking checkpoint too.
        drained = threading.Thread(target=orch.drain)
        drained.start()
        drained.join(0.1)
        assert drained.is_alive(), "drain() returned under a live checkpoint"
        device.release.set()
        blocking.join(10.0)
        drained.join(10.0)
        assert not blocking.is_alive() and not drained.is_alive()
        assert outcome["result"].committed and second.wait(10.0).committed
        assert orch.engine.metrics.value(M.SUPERSEDED) == 0
        assert device.commit_counters == sorted(device.commit_counters)
        assert recover(orch.engine.layout).payload == b"b" * 300

    def test_blocking_and_async_starters_never_supersede_each_other(self):
        """One thread's blocking checkpoints race another's async ones on
        one orchestrator: the start order stays the commit order."""
        orch = make_orchestrator(num_slots=3, payload_capacity=512)
        results, lock = [], threading.Lock()

        def blocking_trainer():
            settled = [orch.checkpoint_sync(BytesSource(b"s" * 200), step=i)
                       for i in range(100)]
            with lock:
                results.extend(settled)

        def async_trainer():
            handles = [orch.checkpoint_async(BytesSource(b"a" * 200), step=i)
                       for i in range(100)]
            settled = [handle.wait(30.0) for handle in handles]
            with lock:
                results.extend(settled)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=blocking_trainer),
                       threading.Thread(target=async_trainer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200
        assert all(result.committed for result in results)
        assert orch.engine.metrics.value(M.SUPERSEDED) == 0
        orch.close()

    def test_no_wait_when_the_earlier_checkpoint_already_settled(self, ordered):
        orch, _, tracer = ordered
        for step in range(1, 4):
            assert orch.checkpoint_sync(BytesSource(bytes([step]) * 300), step).committed
        assert tracer.spans("commit_wait") == []
