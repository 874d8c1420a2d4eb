"""Regression tests for the failure-path fixes.

Four bugs, four tests that failed before their fix:

1. ``CheckpointEngine.checkpoint()`` leaked its slot when the payload
   validation failed (``OutOfSpaceError``): after N failed calls the free
   queue was empty and the engine deadlocked — invariant 4 broken without
   any crash.
2. The orchestrator's persist stage, dying mid-checkpoint, stranded
   captured ``PinnedBuffer``s in the hand-off queue and left the capture
   stage blocked forever inside ``pool.acquire()`` — so
   ``wait_for_snapshots``/``close`` hung and the pool shrank permanently.
3. ``try_recover()`` dropped its ``max_attempts`` argument instead of
   forwarding it to ``recover()``, and ``begin()``'s slot-wait error
   rendered ``"within None seconds"`` when no timeout was given.
4. A multi-chunk payload larger than its slot wrote the slot's whole
   capacity before ``OutOfSpaceError``.
"""

import pytest

from repro import open_checkpointer
from repro.core.engine import CheckpointEngine
from repro.core.freelist import EMPTY
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.recovery import recover, try_recover
from repro.core.snapshot import BytesSource
from repro.errors import (
    CrashedDeviceError,
    EngineClosedError,
    NoCheckpointError,
    OutOfSpaceError,
    SlotWaitTimeout,
)
from repro.storage.dram import DRAMBufferPool
from repro.storage.device import DeviceWrapper, PersistentDevice
from repro.storage.faults import CrashPointDevice
from repro.storage.ssd import InMemorySSD

NUM_SLOTS = 3
PAYLOAD_CAPACITY = 256
SLOT_SIZE = PAYLOAD_CAPACITY + RECORD_SIZE


def build_engine(device=None, writer_threads=2):
    if device is None:
        geometry = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE)
        device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(
        device, num_slots=NUM_SLOTS, slot_size=SLOT_SIZE
    )
    return CheckpointEngine(layout, writer_threads=writer_threads)


def format_op_count():
    """Mutating device ops a format costs (to aim crashes past it)."""
    geometry = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE)
    probe = CrashPointDevice(InMemorySSD(capacity=geometry.total_size))
    DeviceLayout.format(probe, num_slots=NUM_SLOTS, slot_size=SLOT_SIZE)
    return probe.operations_performed


class TestCheckpointSlotConservation:
    def test_out_of_space_does_not_leak_the_slot(self):
        """Regression: each failed checkpoint() used to eat one slot, so
        NUM_SLOTS oversized payloads drained the free queue for good."""
        engine = build_engine()
        oversized = b"x" * (PAYLOAD_CAPACITY + 1)
        for _ in range(NUM_SLOTS):
            with pytest.raises(OutOfSpaceError):
                engine.checkpoint(oversized, step=1)
            assert engine.free_slots == NUM_SLOTS
        # The engine is still fully operational afterwards.
        result = engine.checkpoint(b"y" * 64, step=2)
        assert result.committed
        assert engine.free_slots == NUM_SLOTS - 1

    def test_crashed_device_still_dangles_the_ticket(self):
        """Power loss must NOT recycle the slot: only post-restart
        recovery may reclaim it (the documented asymmetry)."""
        geometry = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE)
        inner = InMemorySSD(capacity=geometry.total_size)
        device = CrashPointDevice(inner, budget=format_op_count() + 1)
        engine = build_engine(device=device, writer_threads=1)
        with pytest.raises(CrashedDeviceError):
            engine.checkpoint(b"z" * 64, step=1)
        assert engine.free_slots == NUM_SLOTS - 1


class TestOrchestratorFailurePaths:
    def make_pipeline(self, budget=None):
        geometry = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE)
        inner = InMemorySSD(capacity=geometry.total_size)
        device = CrashPointDevice(inner, budget=budget)
        engine = build_engine(device=device, writer_threads=1)
        # A pool smaller than the number of chunks per checkpoint, so a
        # consumer that stops releasing buffers starves the capture stage.
        pool = DRAMBufferPool(num_chunks=2, chunk_size=64)
        return PCcheckOrchestrator(engine, pool), pool

    def test_persist_crash_releases_buffers_and_terminates(self):
        """Regression: a persist stage dying mid-checkpoint stranded the
        hand-off queue's buffers and deadlocked the capture stage."""
        orchestrator, pool = self.make_pipeline(budget=format_op_count() + 1)
        payload = b"p" * PAYLOAD_CAPACITY  # 4 chunks through a 2-chunk pool
        handle = orchestrator.checkpoint_async(BytesSource(payload), step=1)
        with pytest.raises(CrashedDeviceError):
            handle.wait(timeout=10.0)
        # The capture must finish (pre-fix it blocked forever inside
        # pool.acquire() behind its dead persist stage).
        assert handle.snapshot_done.wait(timeout=10.0)
        # Every pinned buffer must find its way back to the pool.
        deadline = 10.0
        while pool.free_chunks != pool.total_chunks and deadline > 0:
            import time

            time.sleep(0.02)
            deadline -= 0.02
        assert pool.free_chunks == pool.total_chunks
        # New checkpoints are refused instead of blocking on slots held
        # by dangling post-crash tickets.
        with pytest.raises(EngineClosedError):
            orchestrator.checkpoint_async(BytesSource(payload), step=2)
        orchestrator.close()  # must terminate

    def test_drain_joins_every_handle_after_a_failure(self):
        orchestrator, pool = self.make_pipeline(budget=format_op_count() + 1)
        payload = b"q" * PAYLOAD_CAPACITY
        handles = []
        try:
            for step in (1, 2):
                handles.append(
                    orchestrator.checkpoint_async(BytesSource(payload), step)
                )
        except EngineClosedError:
            pass  # the crash can land before the second request
        with pytest.raises(CrashedDeviceError):
            orchestrator.drain(timeout=10.0)
        # Every issued handle settled with the root cause — none were
        # left un-joined behind the first failure.
        for handle in handles:
            assert handle.done()
            with pytest.raises(CrashedDeviceError):
                handle.wait(timeout=0)
        # A drain that keeps exceptions terminates too (close's path).
        results = orchestrator.drain(timeout=10.0, return_exceptions=True)
        assert all(isinstance(r, CrashedDeviceError) for r in results)
        orchestrator.close()
        assert pool.free_chunks == pool.total_chunks

    def test_capture_failure_aborts_cleanly_and_pipeline_survives(self):
        """A snapshot-source error is a local failure: the ticket aborts,
        the slot recycles, and the orchestrator keeps working."""

        class ExplodingSource(BytesSource):
            def capture_chunk(self, offset, length, dest):
                raise ValueError("GPU copy failed")

        orchestrator, pool = self.make_pipeline()
        engine = orchestrator.engine
        source = ExplodingSource(b"r" * PAYLOAD_CAPACITY)
        handle = orchestrator.checkpoint_async(source, step=1)
        with pytest.raises(ValueError):
            handle.wait(timeout=10.0)
        result = orchestrator.checkpoint_sync(
            BytesSource(b"s" * 64), step=2
        )
        assert result.committed
        orchestrator.close()
        assert pool.free_chunks == pool.total_chunks
        assert engine.free_slots == NUM_SLOTS - 1


class _WriteCounter(DeviceWrapper):
    """Counts every write that reaches the device."""

    def __init__(self, inner) -> None:
        super().__init__(inner, inner.name)
        self.writes = 0

    def write(self, offset, data):
        self.writes += 1
        super().write(offset, data)


@pytest.mark.parametrize("blocking", [True, False], ids=["blocking", "async"])
def test_oversize_multi_chunk_checkpoint_writes_nothing(blocking):
    """Regression: a multi-chunk payload 1.5x its slot wrote the slot's
    whole capacity, chunk by chunk, before ``OutOfSpaceError``; its fit
    is now checked before the first chunk is queued, as a streamed
    one-chunk payload's is."""
    capacity, chunk = 64 << 10, 16 << 10
    geometry = Geometry(num_slots=3, slot_size=capacity + RECORD_SIZE)
    device = _WriteCounter(InMemorySSD(capacity=geometry.total_size))
    oversize = b"o" * (capacity * 3 // 2)
    with open_checkpointer(
        capacity_bytes=capacity, num_concurrent=2, chunk_size=chunk,
        device=device,
    ) as checkpointer:
        before = device.writes
        with pytest.raises(OutOfSpaceError):
            if blocking:
                checkpointer.checkpoint(oversize, step=1)
            else:
                checkpointer.checkpoint_async(oversize, step=1).wait(10.0)
        assert device.writes == before
        report = checkpointer._stack.leak_report()  # noqa: SLF001
        assert report["leaked_slots"] == 0
        assert report["held_slots"] == 0
        assert report["leaked_buffers"] == 0
        # The slot went back: the stack still commits a payload that fits.
        assert checkpointer.checkpoint(b"f" * capacity, step=2).committed


class _CountingReader(PersistentDevice):
    """Reader-side proxy: counts payload-sized reads and runs ``before``
    ahead of each.  Only ``read`` is overridden, so recovery's
    ``readinto`` calls arrive through the base-class default."""

    def __init__(self, inner, payload_len, before=lambda: None):
        super().__init__(inner.capacity, inner.name)
        self._inner = inner
        self._payload_len = payload_len
        self.before = before
        self.payload_reads = 0

    def read(self, offset, length):
        if length == self._payload_len:
            self.payload_reads += 1
            self.before()
        return self._inner.read(offset, length)

    def write(self, offset, data):
        self._inner.write(offset, data)

    def persist(self, offset, length):
        self._inner.persist(offset, length)


class TestTryRecoverForwardsMaxAttempts:
    """The one-read contract: a pass reads each candidate's payload once;
    ``max_attempts`` bounds re-scans of a region that keeps changing, and
    a region that does not change is never re-read."""

    def build_region(self):
        geometry = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE)
        inner = InMemorySSD(capacity=geometry.total_size)
        layout = DeviceLayout.format(
            inner, num_slots=NUM_SLOTS, slot_size=SLOT_SIZE
        )
        engine = CheckpointEngine(layout, writer_threads=1)
        steps = iter(range(1, 10_000))

        def checkpoint():
            step = next(steps)
            engine.checkpoint(bytes([step % 251]) * PAYLOAD_CAPACITY, step=step)

        reader = _CountingReader(inner, PAYLOAD_CAPACITY)
        return DeviceLayout.open(reader), reader, checkpoint

    def racing_region(self):
        """Every payload read finds the writer has lapped the reader:
        NUM_SLOTS new checkpoints recycle every slot first."""
        layout, reader, checkpoint = self.build_region()
        checkpoint()

        def lap():
            for _ in range(NUM_SLOTS):
                checkpoint()

        reader.before = lap
        return layout, reader

    def test_recover_bounds_its_attempts(self):
        layout, reader = self.racing_region()
        with pytest.raises(NoCheckpointError, match="kept changing"):
            recover(layout, max_attempts=3)
        # Per pass: the commit record's payload, then every slot's — each
        # read once, each refused.
        assert reader.payload_reads == 3 * (1 + NUM_SLOTS)
        reader.before = lambda: None  # the writer goes quiet
        reader.payload_reads = 0
        assert recover(layout).source == "commit-record"
        assert reader.payload_reads == 1

    def test_try_recover_honours_the_same_bound(self):
        """Regression: try_recover() used to drop max_attempts, so a
        caller asking for 3 attempts silently got the default 8."""
        layout, reader = self.racing_region()
        assert try_recover(layout, max_attempts=3) is None
        assert reader.payload_reads == 3 * (1 + NUM_SLOTS)

    def test_torn_region_nobody_writes_fails_after_one_pass(self):
        layout, reader, checkpoint = self.build_region()
        checkpoint()
        checkpoint()
        for slot in range(NUM_SLOTS):
            layout.device.write(layout.payload_offset(slot), b"\xff" * 8)
        with pytest.raises(NoCheckpointError, match="no valid checkpoint"):
            recover(layout, max_attempts=3)
        # Two intact headers, two payload reads: the commit record's slot
        # is not read again by the scan, and nothing changed, so no
        # second pass.
        assert reader.payload_reads == 2


class TestBeginTimeoutMessage:
    def test_timeout_value_appears_in_the_error(self):
        engine = build_engine()
        tickets = [engine.begin(step=s) for s in range(NUM_SLOTS)]
        with pytest.raises(SlotWaitTimeout, match="within 0.05 seconds"):
            engine.begin(step=9, timeout=0.05)
        for ticket in tickets:
            ticket.abort()

    def test_no_timeout_does_not_render_none(self):
        """Regression: the message used to read "within None seconds"
        when an untimed wait came back empty."""
        engine = build_engine()
        engine._free.dequeue_blocking = lambda timeout=None: EMPTY
        with pytest.raises(SlotWaitTimeout) as excinfo:
            engine.begin(step=1)
        assert "None" not in str(excinfo.value)
        assert "no free checkpoint slot" in str(excinfo.value)
