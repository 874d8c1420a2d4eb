"""A checkpoint that fits one staging chunk runs on one thread.

The blocking ``checkpoint_sync`` (what ``Checkpointer.checkpoint`` calls)
runs a one-chunk checkpoint on the caller's thread and
``checkpoint_async`` runs it on ONE executor task; a multi-chunk plan
keeps the two-task capture/persist pipeline.  A one-chunk payload of at
most ``INLINE_WRITE_MAX_BYTES`` is also written on that thread; a larger
one, and every multi-chunk plan, is written by the ``pccheck-writer-*``
pool.  Placement is read off the threads that run ``capture_chunk``,
write the slot area and persist the commit record.  The failure matrix
then drives the one-chunk path into every failure the pipelined path
handles — capture error, local write error, power loss, ``close()``
racing a blocked checkpoint — blocking and async alike.
"""

import threading

import pytest

from repro import open_checkpointer
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import INLINE_WRITE_MAX_BYTES
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource
from repro.errors import CrashedDeviceError, EngineClosedError
from repro.obs import M
from repro.service.pool import EngineSpec, build_stack
from repro.storage.device import DeviceWrapper
from repro.storage.ssd import InMemorySSD

CAPACITY = 4096
NUM_CONCURRENT = 2
WAIT = 10.0


class ProbeDevice(DeviceWrapper):
    """Records the threads that write payloads and persist the commit
    record and, once armed, fails or holds the next payload write."""

    def __init__(self, capacity=CAPACITY) -> None:
        geometry = Geometry(
            num_slots=NUM_CONCURRENT + 1, slot_size=capacity + RECORD_SIZE
        )
        inner = InMemorySSD(capacity=geometry.total_size)
        super().__init__(inner, inner.name)
        self.data_offset = geometry.data_offset
        self.slot_size = geometry.slot_size
        self.commit_threads = []
        #: The thread of every payload write (slot headers excluded).
        self.payload_threads = []
        #: Raised by the next slot-area write (then disarmed).
        self.fail_next_write = None
        #: The next slot-area write waits on this event (then disarmed).
        self.hold_next_write = None
        self.write_entered = threading.Event()
        #: Raised by the next fence (then disarmed).
        self.fail_next_persist = None

    def write(self, offset, data):
        if offset >= self.data_offset:
            if (offset - self.data_offset) % self.slot_size:
                self.payload_threads.append(threading.current_thread())
            error, self.fail_next_write = self.fail_next_write, None
            gate, self.hold_next_write = self.hold_next_write, None
            if gate is not None:
                self.write_entered.set()
                assert gate.wait(WAIT), "held write was never released"
            if error is not None:
                raise error
        super().write(offset, data)

    def persist(self, offset, length):
        if offset < self.data_offset:
            self.commit_threads.append(threading.get_ident())
        error, self.fail_next_persist = self.fail_next_persist, None
        if error is not None:
            raise error
        super().persist(offset, length)


class RecordingSource(BytesSource):
    """Records the threads that run ``capture_chunk``."""

    def __init__(self, data, fail=None) -> None:
        super().__init__(data)
        self.capture_threads = []
        self.fail = fail

    def capture_chunk(self, offset, length, dest):
        self.capture_threads.append(threading.get_ident())
        if self.fail is not None:
            raise self.fail
        super().capture_chunk(offset, length, dest)


def payload(step, size=CAPACITY):
    return bytes([step % 256]) * size


def capture_and_commit_threads(checkpointer, probe, source, blocking):
    probe.commit_threads.clear()
    if blocking:
        result = checkpointer.checkpoint(source, step=1)
    else:
        result = checkpointer.checkpoint_async(source, step=1).wait(WAIT)
    assert result.committed
    (captured,) = set(source.capture_threads)
    # The commit record is the only persist below the slot area.
    (committed,) = set(probe.commit_threads)
    return captured, committed


def payload_writers(checkpointer, probe, size, blocking):
    """Checkpoint ``size`` bytes; return the threads that wrote the
    payload and the capture thread."""
    probe.payload_threads.clear()
    source = RecordingSource(payload(1, size))
    capture_and_commit_threads(checkpointer, probe, source, blocking)
    assert probe.payload_threads, "the payload was never written"
    (captured,) = set(source.capture_threads)
    return set(probe.payload_threads), captured


def pool_threads(writers):
    return all(t.name.startswith("pccheck-writer-") for t in writers)


class TestThreadPlacement:
    def test_blocking_one_chunk_checkpoint_runs_on_the_caller(self):
        probe = ProbeDevice()
        with open_checkpointer(
            capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
            writer_threads=1, device=probe,
        ) as checkpointer:
            captured, committed = capture_and_commit_threads(
                checkpointer, probe, RecordingSource(payload(1)),
                blocking=True,
            )
        caller = threading.get_ident()
        assert captured == caller
        assert committed == caller

    def test_async_one_chunk_checkpoint_runs_on_one_task(self):
        probe = ProbeDevice()
        with open_checkpointer(
            capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
            writer_threads=1, device=probe,
        ) as checkpointer:
            captured, committed = capture_and_commit_threads(
                checkpointer, probe, RecordingSource(payload(1)),
                blocking=False,
            )
        assert captured == committed
        assert captured != threading.get_ident()

    @pytest.mark.parametrize("blocking", [True, False])
    def test_multi_chunk_plan_keeps_the_pipeline(self, blocking):
        probe = ProbeDevice()
        with open_checkpointer(
            capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
            writer_threads=1, chunk_size=CAPACITY // 4, device=probe,
        ) as checkpointer:
            captured, committed = capture_and_commit_threads(
                checkpointer, probe, RecordingSource(payload(1)),
                blocking=blocking,
            )
        assert captured != committed
        assert threading.get_ident() not in (captured, committed)


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "async"])
class TestWritePlacement:
    """Who writes the payload: the checkpoint's own thread up to the
    inline bound, the writer pool above it and for multi-chunk plans."""

    def test_one_chunk_at_the_bound_writes_on_its_own_thread(self, blocking):
        probe = ProbeDevice(capacity=INLINE_WRITE_MAX_BYTES)
        with open_checkpointer(
            capacity_bytes=INLINE_WRITE_MAX_BYTES,
            num_concurrent=NUM_CONCURRENT, writer_threads=2, device=probe,
        ) as checkpointer:
            writers, captured = payload_writers(
                checkpointer, probe, INLINE_WRITE_MAX_BYTES, blocking
            )
        (writer,) = writers
        if blocking:
            assert writer is threading.current_thread()
        else:
            # The one executor task that captured the chunk wrote it.
            assert writer.ident == captured
            assert writer is not threading.current_thread()

    def test_small_checkpoints_never_start_a_writer_thread(self, blocking):
        probe = ProbeDevice()
        with open_checkpointer(
            capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
            writer_threads=2, device=probe,
        ) as checkpointer:
            for step in range(1, 4):
                source = BytesSource(payload(step))
                if blocking:
                    checkpointer.checkpoint(source, step=step)
                else:
                    checkpointer.checkpoint_async(source, step=step).wait(WAIT)
            assert checkpointer.engine._writer.threads_started == 0
            assert checkpointer.latest().step == 3

    def test_one_chunk_above_the_bound_uses_the_pool(self, blocking):
        size = INLINE_WRITE_MAX_BYTES + 4096
        probe = ProbeDevice(capacity=size)
        with open_checkpointer(
            capacity_bytes=size, num_concurrent=NUM_CONCURRENT,
            writer_threads=2, device=probe,
        ) as checkpointer:
            writers, _ = payload_writers(checkpointer, probe, size, blocking)
        assert pool_threads(writers)

    def test_multi_chunk_plan_uses_the_pool(self, blocking):
        probe = ProbeDevice()
        with open_checkpointer(
            capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
            writer_threads=2, chunk_size=CAPACITY // 4, device=probe,
        ) as checkpointer:
            writers, _ = payload_writers(
                checkpointer, probe, CAPACITY, blocking
            )
        assert pool_threads(writers)


def test_checkpoints_waiting_their_turn_hold_no_staging_buffer():
    """More one-chunk checkpoints in flight than staging buffers: each
    gives its buffer back once written, before it waits for an earlier
    one to commit, so the earlier one's capture always finds a buffer."""
    checkpointer = open_checkpointer(
        capacity_bytes=CAPACITY, num_concurrent=4, num_chunks=1,
        backend="pmem",
    )
    handles = [checkpointer.checkpoint_async(payload(step), step=step)
               for step in range(1, 33)]
    # A deadlock fails here; close() would wait on it forever.
    assert all(handle.wait(WAIT).committed for handle in handles)
    assert checkpointer.latest().step == 32
    checkpointer.close()


@pytest.fixture
def stack():
    """A one-chunk stack (default ``chunk_size``: the whole payload) with
    step 1 committed."""
    probe = ProbeDevice()
    spec = EngineSpec(
        capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
        writer_threads=1,
    )
    built = build_stack(spec, device=probe)
    assert built.orchestrator.checkpoint_sync(
        BytesSource(payload(1)), step=1
    ).committed
    yield built
    built.close()


def checkpoint(stack, source, blocking, step=2):
    orchestrator = stack.orchestrator
    if blocking:
        return orchestrator.checkpoint_sync(source, step=step)
    return orchestrator.checkpoint_async(source, step=step).wait(WAIT)


def checkpoints_timed(stack):
    return stack.engine.metrics.histogram(M.CHECKPOINT_SECONDS).count


def assert_step_one_recovers(stack):
    recovered = recover(DeviceLayout.open(stack.device.inner))
    assert recovered.meta.step == 1
    assert recovered.payload == payload(1)


def assert_no_leak(stack):
    report = stack.leak_report()
    assert report["leaked_slots"] == 0
    assert report["held_slots"] == 0
    assert report["leaked_buffers"] == 0


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "async"])
class TestOneChunkFailures:
    def test_capture_error_recycles_the_slot(self, stack, blocking):
        timed = checkpoints_timed(stack)
        source = RecordingSource(payload(2), fail=ValueError("copy failed"))
        with pytest.raises(ValueError, match="copy failed"):
            checkpoint(stack, source, blocking)
        assert checkpoints_timed(stack) == timed
        assert stack.engine.metrics.value(M.ABORTED) == 1
        assert_no_leak(stack)
        assert_step_one_recovers(stack)
        # The stack keeps working, and a commit is timed exactly once.
        assert checkpoint(stack, BytesSource(payload(3)), blocking).committed
        assert checkpoints_timed(stack) == timed + 1

    def test_local_write_error_aborts(self, stack, blocking):
        stack.device.fail_next_write = OSError("transient EIO")
        with pytest.raises(OSError, match="transient EIO"):
            checkpoint(stack, BytesSource(payload(2)), blocking)
        assert stack.engine.metrics.value(M.ABORTED) == 1
        assert stack.orchestrator.fatal_error is None
        assert_no_leak(stack)
        assert_step_one_recovers(stack)

    def test_power_loss_dangles_and_refuses_later_checkpoints(
        self, stack, blocking
    ):
        timed = checkpoints_timed(stack)
        stack.device.fail_next_write = CrashedDeviceError("power lost")
        with pytest.raises(CrashedDeviceError):
            checkpoint(stack, BytesSource(payload(2)), blocking)
        assert stack.engine.metrics.value(M.DANGLING) == 1
        assert checkpoints_timed(stack) == timed
        assert isinstance(stack.orchestrator.fatal_error, CrashedDeviceError)
        with pytest.raises(EngineClosedError):
            checkpoint(stack, BytesSource(payload(3)), blocking, step=3)
        # Power-loss semantics: the dangling ticket keeps its slot until
        # post-restart recovery; nothing else leaks.
        report = stack.leak_report()
        assert report["leaked_buffers"] == 0
        assert report["leaked_slots"] == 1
        assert_step_one_recovers(stack)

    def test_power_loss_at_the_fence_dangles_and_goes_fatal(
        self, stack, blocking
    ):
        """The commit's covering fence fails after the CAS: the ticket
        dangles with its slot, the orchestrator refuses new checkpoints,
        the staging buffer is back and step 1 still recovers."""
        stack.device.fail_next_persist = CrashedDeviceError("power lost")
        with pytest.raises(CrashedDeviceError):
            checkpoint(stack, BytesSource(payload(2)), blocking)
        assert stack.engine.metrics.value(M.DANGLING) == 1
        assert stack.engine.metrics.value(M.ABORTED) == 0
        assert isinstance(stack.orchestrator.fatal_error, CrashedDeviceError)
        with pytest.raises(EngineClosedError):
            checkpoint(stack, BytesSource(payload(3)), blocking, step=3)
        report = stack.leak_report()
        assert report["leaked_buffers"] == 0
        assert report["leaked_slots"] == 1
        # Nothing of step 2 was fenced: power loss keeps none of it.
        stack.device.inner.crash()
        stack.device.inner.recover()
        assert_step_one_recovers(stack)

    def test_close_waits_for_a_checkpoint_blocked_in_a_write(
        self, stack, blocking
    ):
        gate = threading.Event()
        stack.device.hold_next_write = gate
        outcome = {}

        def run_checkpoint():
            outcome["result"] = checkpoint(
                stack, BytesSource(payload(2)), blocking
            )

        runner = threading.Thread(target=run_checkpoint)
        runner.start()
        assert stack.device.write_entered.wait(WAIT)
        closer = threading.Thread(
            target=lambda: outcome.setdefault("report", stack.close())
        )
        closer.start()
        closer.join(0.2)
        assert closer.is_alive(), "close() returned under a live checkpoint"
        gate.set()
        runner.join(WAIT)
        closer.join(WAIT)
        assert not runner.is_alive() and not closer.is_alive()
        assert outcome["result"].committed
        report = outcome["report"]
        assert report["leaked_slots"] == 0
        assert report["leaked_buffers"] == 0
        recovered = recover(DeviceLayout.open(stack.device.inner))
        assert recovered.meta.step == 2
        assert recovered.payload == payload(2)
