"""Every checkpoint runs on one thread.

The blocking ``checkpoint_sync`` (what ``Checkpointer.checkpoint`` calls)
runs a checkpoint on the caller's thread and ``checkpoint_async`` runs it
on ONE executor task, whatever its plan.  A one-chunk payload of at most
``INLINE_WRITE_MAX_BYTES`` is also written on that thread; a larger one
streams to the ``pccheck-writer-*`` pool in pieces of that size, and
every multi-chunk plan is written by the pool, a chunk at a time.
Placement is read off the threads that run ``capture_chunk``, write the
slot area and persist the commit record.  The failure matrix then drives
the one-chunk path into every failure a multi-chunk plan handles —
capture error, local write error, power loss, ``close()`` racing a
blocked checkpoint — blocking and async alike, and the streamed path
into the failures that land between its pieces.
"""

import sys
import threading

import numpy as np
import pytest

from repro import open_checkpointer
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import INLINE_WRITE_MAX_BYTES, PCcheckOrchestrator
from repro.core.recovery import recover
from repro.core.snapshot import BytesSource
from repro.errors import CrashedDeviceError, EngineClosedError, OutOfSpaceError
from repro.obs import M
from repro.service.pool import EngineSpec, build_stack
from repro.storage.device import DeviceWrapper
from repro.storage.dram import DRAMBufferPool
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
        #: ``(slot offset, error)``: the error is raised by the first
        #: payload write at or past that offset into its slot (then
        #: disarmed) — a write of a streamed payload's later piece.
        self.fail_write_past = None
        #: Set by the first payload write.
        self.payload_written = threading.Event()

    def write(self, offset, data):
        if offset >= self.data_offset:
            into_slot = (offset - self.data_offset) % self.slot_size
            if into_slot:
                self.payload_threads.append(threading.current_thread())
                self.payload_written.set()
            error, self.fail_next_write = self.fail_next_write, None
            if self.fail_write_past and into_slot >= self.fail_write_past[0]:
                error, self.fail_write_past = self.fail_write_past[1], None
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
    def test_multi_chunk_plan_runs_on_one_thread(self, blocking):
        probe = ProbeDevice()
        with open_checkpointer(
            capacity_bytes=CAPACITY, num_concurrent=NUM_CONCURRENT,
            writer_threads=1, chunk_size=CAPACITY // 4, device=probe,
        ) as checkpointer:
            captured, committed = capture_and_commit_threads(
                checkpointer, probe, RecordingSource(payload(1)),
                blocking=blocking,
            )
        # One thread captures every chunk and commits: the caller's when
        # blocking, one executor task's otherwise.
        assert captured == committed
        assert (captured == threading.get_ident()) is blocking


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


def test_multi_chunk_checkpoints_hold_no_buffer_while_waiting_for_one():
    """Multi-chunk plans over ONE staging buffer, four asynchronous
    checkpoints at a time while a second thread checkpoints blocking: a
    checkpoint reaps its own queued chunk to get a buffer back and waits
    for one only once it holds none in flight, so every checkpoint
    commits and nothing leaks."""
    num_chunks = 4
    checkpointer = open_checkpointer(
        capacity_bytes=CAPACITY, num_concurrent=4, num_chunks=1,
        chunk_size=CAPACITY // num_chunks, backend="pmem",
    )
    blocking = []

    def checkpoint_blocking():
        for step in range(101, 111):
            blocking.append(checkpointer.checkpoint(payload(step), step=step))

    caller = threading.Thread(target=checkpoint_blocking, daemon=True)
    caller.start()
    for first in range(1, 21, 4):
        handles = [checkpointer.checkpoint_async(payload(step), step=step)
                   for step in range(first, first + 4)]
        # A deadlock fails here; close() would wait on it forever.
        assert all(handle.wait(WAIT).committed for handle in handles)
    caller.join(WAIT)
    assert not caller.is_alive()
    assert len(blocking) == 10
    assert all(result.committed for result in blocking)
    checkpointer.orchestrator.drain(timeout=WAIT)
    report = checkpointer._stack.leak_report()  # noqa: SLF001
    assert report["leaked_buffers"] == 0
    assert report["leaked_slots"] == 0
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


# ----------------------------------------------------------------------
# A one-chunk payload above the inline bound streams to the writer pool
# piece by piece, from one staging buffer.

#: Two pieces, the second one byte long.
JUST_ABOVE = INLINE_WRITE_MAX_BYTES + 1
#: Three pieces, the last one ragged.
RAGGED = 2 * INLINE_WRITE_MAX_BYTES + 4097


def random_payload(size, seed):
    """Bytes that differ everywhere, so a misplaced piece cannot pass."""
    return np.random.default_rng(seed).integers(
        0, 256, size, dtype=np.uint8
    ).tobytes()


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "async"])
@pytest.mark.parametrize("size", [JUST_ABOVE, RAGGED], ids=["just-above", "ragged"])
@pytest.mark.parametrize("backend", ["ssd", "pmem", "stripe-2"])
def test_streamed_payload_recovers_byte_exact(tmp_path, backend, size, blocking):
    options = {"backend": "pmem"} if backend == "pmem" else {
        "path": str(tmp_path / "region.pc"),
        "stripe_devices": 2 if backend == "stripe-2" else 1,
    }
    with open_checkpointer(
        capacity_bytes=size, num_concurrent=NUM_CONCURRENT,
        writer_threads=2, **options,
    ) as checkpointer:
        for step in (1, 2):
            data = random_payload(size, step)
            if blocking:
                result = checkpointer.checkpoint(data, step=step)
            else:
                result = checkpointer.checkpoint_async(data, step=step).wait(WAIT)
            assert result.committed
        recovered = recover(checkpointer.layout)
        assert recovered.meta.step == 2
        assert bytes(recovered.payload) == random_payload(size, 2)


class GatedSource(BytesSource):
    """Holds the capture of its last piece until ``gate`` is set, and
    records whether it was."""

    def __init__(self, data, gate) -> None:
        super().__init__(data)
        self.gate = gate
        self.gate_was_open = None

    def capture_chunk(self, offset, length, dest):
        if offset + length == self.snapshot_size() and offset > 0:
            self.gate_was_open = self.gate.wait(WAIT)
        super().capture_chunk(offset, length, dest)


class FailingPieceSource(BytesSource):
    """Raises from the capture of every piece past the first."""

    def __init__(self, data) -> None:
        super().__init__(data)
        self.failed = threading.Event()

    def capture_chunk(self, offset, length, dest):
        if offset > 0:
            self.failed.set()
            raise ValueError("copy failed")
        super().capture_chunk(offset, length, dest)


def test_concurrent_streamed_checkpoints_share_the_writer_pool():
    """More streamed checkpoints in flight than cores and staging
    buffers, with thread switches forced often: each one's pieces land
    in its own slot in order, every commit is byte-exact, and the
    staging pool ends whole."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with open_checkpointer(
            capacity_bytes=RAGGED, num_concurrent=3, num_chunks=2,
            writer_threads=2, backend="pmem",
        ) as checkpointer:
            handles = [
                checkpointer.checkpoint_async(
                    random_payload(RAGGED, step), step=step
                )
                for step in range(1, 9)
            ]
            assert all(handle.wait(WAIT).committed for handle in handles)
            recovered = recover(checkpointer.layout)
            assert recovered.meta.step == 8
            assert bytes(recovered.payload) == random_payload(RAGGED, 8)
            report = checkpointer._stack.leak_report()
            assert report["leaked_buffers"] == 0
            assert report["leaked_slots"] == 0
    finally:
        sys.setswitchinterval(switch)


@pytest.fixture
def streamed_stack():
    """A one-chunk stack whose payload streams in three pieces, with
    step 1 committed."""
    probe = ProbeDevice(capacity=RAGGED)
    spec = EngineSpec(
        capacity_bytes=RAGGED, num_concurrent=NUM_CONCURRENT,
        writer_threads=2,
    )
    built = build_stack(spec, device=probe)
    assert built.orchestrator.checkpoint_sync(
        BytesSource(payload(1, RAGGED)), step=1
    ).committed
    yield built
    built.close()


def assert_streamed_step_one_recovers(stack):
    recovered = recover(DeviceLayout.open(stack.device.inner))
    assert recovered.meta.step == 1
    assert recovered.payload == payload(1, RAGGED)


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "async"])
class TestStreamedPieces:
    def test_the_first_piece_writes_while_the_last_is_captured(
        self, streamed_stack, blocking
    ):
        """The device sees piece 0 before the last piece's copy returns:
        the gate opens only on a payload write."""
        probe = streamed_stack.device
        probe.payload_written.clear()
        source = GatedSource(payload(2, RAGGED), probe.payload_written)
        assert checkpoint(streamed_stack, source, blocking).committed
        assert source.gate_was_open

    def test_a_later_capture_error_settles_the_queued_pieces_first(
        self, streamed_stack, blocking
    ):
        """Piece 1's capture fails while piece 0's write is held: the
        staging buffer stays checked out until that write returned, then
        the slot is recycled and the pool is whole."""
        dram = streamed_stack.dram
        gate = threading.Event()
        probe = streamed_stack.device
        probe.hold_next_write = gate
        source = FailingPieceSource(payload(2, RAGGED))
        outcome = {}

        def run_checkpoint():
            try:
                checkpoint(streamed_stack, source, blocking)
            except ValueError as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=run_checkpoint)
        runner.start()
        assert probe.write_entered.wait(WAIT)
        assert source.failed.wait(WAIT)
        runner.join(0.2)
        assert runner.is_alive(), "gave up before its queued write returned"
        assert dram.free_chunks == dram.total_chunks - 1
        gate.set()
        runner.join(WAIT)
        assert not runner.is_alive()
        assert "copy failed" in str(outcome["error"])
        assert streamed_stack.engine.metrics.value(M.ABORTED) == 1
        assert streamed_stack.orchestrator.fatal_error is None
        assert_no_leak(streamed_stack)
        assert_streamed_step_one_recovers(streamed_stack)
        assert checkpoint(
            streamed_stack, BytesSource(payload(3, RAGGED)), blocking, step=3
        ).committed

    def test_power_loss_on_a_later_piece_dangles_and_goes_fatal(
        self, streamed_stack, blocking
    ):
        probe = streamed_stack.device
        probe.fail_write_past = (
            INLINE_WRITE_MAX_BYTES, CrashedDeviceError("power lost")
        )
        with pytest.raises(CrashedDeviceError):
            checkpoint(streamed_stack, BytesSource(payload(2, RAGGED)), blocking)
        assert probe.fail_write_past is None, "no later piece was written"
        assert streamed_stack.engine.metrics.value(M.DANGLING) == 1
        assert streamed_stack.engine.metrics.value(M.ABORTED) == 0
        assert isinstance(
            streamed_stack.orchestrator.fatal_error, CrashedDeviceError
        )
        with pytest.raises(EngineClosedError):
            checkpoint(
                streamed_stack, BytesSource(payload(3, RAGGED)), blocking,
                step=3,
            )
        report = streamed_stack.leak_report()
        assert report["leaked_buffers"] == 0
        assert report["leaked_slots"] == 1
        assert_streamed_step_one_recovers(streamed_stack)

    def test_an_oversize_payload_writes_nothing(self, streamed_stack, blocking):
        """A staging chunk larger than the slot: the payload's fit is
        checked before its first piece is queued."""
        oversize = RAGGED + INLINE_WRITE_MAX_BYTES
        dram = DRAMBufferPool(num_chunks=1, chunk_size=oversize)
        orchestrator = PCcheckOrchestrator(streamed_stack.engine, dram)
        probe = streamed_stack.device
        probe.payload_threads.clear()
        source = BytesSource(payload(2, oversize))
        with pytest.raises(OutOfSpaceError):
            if blocking:
                orchestrator.checkpoint_sync(source, step=2)
            else:
                orchestrator.checkpoint_async(source, step=2).wait(WAIT)
        assert probe.payload_threads == []
        assert streamed_stack.engine.metrics.value(M.ABORTED) == 1
        assert dram.free_chunks == 1
        orchestrator.close()
        assert_no_leak(streamed_stack)
        assert_streamed_step_one_recovers(streamed_stack)
