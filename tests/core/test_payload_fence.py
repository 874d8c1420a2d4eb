"""One payload fence per checkpoint (§4.1, SSD: "a single ``msync()``
with the checkpoint address").

Chunks are written and reaped without a fence — a reaped chunk's staging
buffer goes straight back to capture — and the ticket's commit issues
ONE fence covering ``[payload_offset(slot), +len)`` before the slot
header is written.  On PMEM (``per-thread``) every writer share fences
its own range and no covering fence is added.
"""

import threading

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.snapshot import BytesSource
from repro.errors import TransientIOError
from repro.obs.metrics import M, MetricsRegistry
from repro.service.pool import EngineSpec, build_stack
from repro.storage.device import DeviceWrapper
from repro.storage.dram import DRAMBufferPool
from repro.storage.faults import CrashPointDevice, TransientFaultDevice
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD

CHUNK = 4096


def _payload(num_chunks):
    return bytes(range(256)) * (num_chunks * CHUNK // 256)


def _checkpoint_ops(device, layout, result):
    """Split the op log of one checkpoint into payload writes, payload
    fences and the slot-header write, keeping each op's position."""
    lo = layout.payload_offset(result.slot)
    hi = lo + result.payload_len
    header = layout.slot_offset(result.slot)
    ops = list(enumerate(device.op_log))
    writes = [(i, op) for i, op in ops
              if op.kind == "write" and op.touches(lo, hi)]
    fences = [(i, op) for i, op in ops
              if op.kind == "persist" and op.touches(lo, hi)]
    header_writes = [i for i, op in ops
                     if op.kind == "write" and op.offset == header]
    persists = sum(1 for _, op in ops if op.kind == "persist")
    return writes, fences, header_writes, persists


class TestOpOrder:
    @pytest.mark.parametrize("num_chunks", [1, 4, 16])
    def test_one_covering_fence_before_the_header(self, num_chunks):
        spec = EngineSpec(
            capacity_bytes=num_chunks * CHUNK, chunk_size=CHUNK,
            writer_threads=2, backend="faults", observability="off",
        )
        stack = build_stack(spec)
        try:
            stack.device.op_log.clear()
            payload = _payload(num_chunks)
            result = stack.orchestrator.checkpoint_sync(
                BytesSource(payload), step=1
            )
            assert result.committed
            writes, fences, header_writes, persists = _checkpoint_ops(
                stack.device, stack.layout, result
            )
            assert len(fences) == 1
            fence_at, fence = fences[0]
            assert (fence.offset, fence.length) == (
                stack.layout.payload_offset(result.slot), len(payload)
            )
            assert sum(op.length for _, op in writes) == len(payload)
            assert all(i < fence_at for i, _ in writes)
            assert header_writes == [header_writes[0]]
            assert fence_at < header_writes[0]
            # Payload fence + header fence + commit-record fence,
            # whatever the chunk count.
            assert persists == 3
        finally:
            stack.close()

    @pytest.mark.parametrize("num_chunks", [1, 4])
    def test_pmem_shares_fence_themselves_without_a_covering_fence(
        self, num_chunks
    ):
        slot_size = num_chunks * CHUNK + RECORD_SIZE
        total = Geometry(num_slots=3, slot_size=slot_size).total_size
        device = CrashPointDevice(SimulatedPMEM(total), record_ops=True)
        layout = DeviceLayout.format(device, num_slots=3, slot_size=slot_size)
        engine = CheckpointEngine(
            layout, writer_threads=2, fence_mode="per-thread"
        )
        orch = PCcheckOrchestrator(
            engine, DRAMBufferPool(num_chunks=2, chunk_size=CHUNK)
        )
        try:
            device.op_log.clear()
            payload = _payload(num_chunks)
            result = orch.checkpoint_sync(BytesSource(payload), step=1)
            writes, fences, header_writes, persists = _checkpoint_ops(
                device, layout, result
            )
            # Each share's fence covers exactly that share, right after
            # its write; nothing spans the whole payload.
            assert sorted((op.offset, op.length) for _, op in fences) == (
                sorted((op.offset, op.length) for _, op in writes)
            )
            assert len(fences) == 2 * num_chunks
            assert all(i < header_writes[0] for i, _ in fences)
            assert persists == len(fences) + 2
        finally:
            orch.close()


class _BlockingFence(DeviceWrapper):
    """Every ``persist`` waits for ``release`` once ``armed`` is set."""

    def __init__(self, inner):
        super().__init__(inner, f"blocking({inner.name})")
        self.armed = False
        self.release = threading.Event()
        self.fence_entered = threading.Event()

    def persist(self, offset, length):
        if self.armed:
            self.fence_entered.set()
            self.release.wait(30.0)
        super().persist(offset, length)


class TestStagingDoesNotWaitForFsync:
    def test_capture_finishes_while_the_fence_blocks(self):
        slot_size = 4 * CHUNK + RECORD_SIZE
        total = Geometry(num_slots=3, slot_size=slot_size).total_size
        device = _BlockingFence(InMemorySSD(total))
        layout = DeviceLayout.format(device, num_slots=3, slot_size=slot_size)
        engine = CheckpointEngine(layout, writer_threads=1)
        staging = DRAMBufferPool(num_chunks=2, chunk_size=CHUNK)
        orch = PCcheckOrchestrator(engine, staging)
        device.armed = True
        try:
            handle = orch.checkpoint_async(
                BytesSource(_payload(4)), step=1
            )
            # Four chunks through two staging buffers: capture can only
            # finish if buffers come back before any fence returns.
            assert handle.snapshot_done.wait(5.0)
            assert device.fence_entered.wait(5.0)
            assert not handle.done()
        finally:
            device.release.set()
        try:
            assert handle.wait(timeout=10.0).committed
            assert staging.free_chunks == 2
        finally:
            orch.close()


class TestBytesPersistedMetric:
    def _engine(self):
        slot_size = 4 * CHUNK + RECORD_SIZE
        total = Geometry(num_slots=3, slot_size=slot_size).total_size
        device = InMemorySSD(total)
        layout = DeviceLayout.format(device, num_slots=3, slot_size=slot_size)
        return CheckpointEngine(
            layout, writer_threads=2, metrics=MetricsRegistry()
        )

    def test_aborted_ticket_contributes_nothing(self):
        engine = self._engine()
        ticket = engine.begin(step=1)
        for index in range(3):
            ticket.reap(ticket.submit([bytes([index]) * CHUNK]))
        ticket.abort()
        assert engine.metrics.value(M.BYTES_PERSISTED) == 0
        engine.close()

    def test_committed_ticket_counts_its_payload_once(self):
        engine = self._engine()
        ticket = engine.begin(step=1)
        for index in range(3):
            ticket.reap(ticket.submit([bytes([index]) * CHUNK]))
        assert engine.metrics.value(M.BYTES_PERSISTED) == 0
        assert ticket.commit().committed
        assert engine.metrics.value(M.BYTES_PERSISTED) == 3 * CHUNK
        engine.close()

    def test_failed_payload_fence_recycles_the_slot(self):
        slot_size = 4 * CHUNK + RECORD_SIZE
        total = Geometry(num_slots=3, slot_size=slot_size).total_size
        inner = InMemorySSD(total)
        formatted = DeviceLayout.format(inner, num_slots=3, slot_size=slot_size)
        flaky = TransientFaultDevice(inner, kind="persist", occurrence=0)
        engine = CheckpointEngine(
            DeviceLayout(flaky, formatted.geometry), writer_threads=2,
            metrics=MetricsRegistry(),
        )
        with pytest.raises(TransientIOError):
            engine.checkpoint(b"f" * CHUNK, step=1)
        assert engine.free_slots == 3
        assert engine.metrics.value(M.BYTES_PERSISTED) == 0
        assert engine.checkpoint(b"g" * CHUNK, step=2).committed
        assert engine.metrics.value(M.BYTES_PERSISTED) == CHUNK
        engine.close()
