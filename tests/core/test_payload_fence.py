"""One fence per checkpoint on a single-fence device (§4.1, SSD: "a
single ``msync()`` with the checkpoint address").

Chunks are written and reaped without a fence — a reaped chunk's staging
buffer goes straight back to capture — and the ticket's commit writes the
slot header, wins the CAS, writes the commit record and then issues ONE
fence covering ``[commit_offset, payload_end)``: record, header and
payload together.  Every link is checked at recovery (record CRC, header
counter, payload CRC), so no ordering fence sits between them.  On PMEM
(``per-thread``) every writer share fences its own range, then the header
and the record are persisted in Listing 1's order.
"""

import threading

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.snapshot import BytesSource
from repro.core.recovery import recover
from repro.errors import CrashedDeviceError, EngineClosedError, TransientIOError
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
        """Whatever the chunk count: payload writes, the header write, the
        commit-record write, then ONE fence over ``[commit_offset,
        payload_end)`` — the only fence the checkpoint pays."""
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
            layout = stack.layout
            writes, fences, header_writes, persists = _checkpoint_ops(
                stack.device, layout, result
            )
            assert persists == 1 and len(fences) == 1
            fence_at, fence = fences[0]
            payload_end = layout.payload_offset(result.slot) + len(payload)
            assert (fence.offset, fence.length) == (
                layout.commit_offset, payload_end - layout.commit_offset
            )
            assert sum(op.length for _, op in writes) == len(payload)
            record_writes = [
                i for i, op in enumerate(stack.device.op_log)
                if op.kind == "write" and op.offset == layout.commit_offset
            ]
            assert header_writes == [header_writes[0]]
            assert record_writes == [record_writes[0]]
            # Payload and header precede the CAS, the record follows it,
            # and the fence comes last.
            assert max(i for i, _ in writes) < header_writes[0]
            assert header_writes[0] < record_writes[0] < fence_at
            assert fence_at == len(stack.device.op_log) - 1
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
        """A covering fence that fails after the CAS: the checkpoint is
        not acked and neither its slot nor the one it superseded is
        recycled — the engine goes defunct, as on power loss — and the
        region still recovers the previous commit."""
        slot_size = 4 * CHUNK + RECORD_SIZE
        total = Geometry(num_slots=3, slot_size=slot_size).total_size
        inner = InMemorySSD(total)
        formatted = DeviceLayout.format(inner, num_slots=3, slot_size=slot_size)
        # The first checkpoint's fence passes, the second one's fails.
        flaky = TransientFaultDevice(inner, kind="persist", occurrence=1)
        engine = CheckpointEngine(
            DeviceLayout(flaky, formatted.geometry), writer_threads=2,
            metrics=MetricsRegistry(),
        )
        assert engine.checkpoint(b"f" * CHUNK, step=1).committed
        assert engine.free_slots == 2
        with pytest.raises(CrashedDeviceError) as failed:
            engine.checkpoint(b"g" * CHUNK, step=2)
        assert isinstance(failed.value.__cause__, TransientIOError)
        assert engine.free_slots == 1
        assert engine.metrics.value(M.BYTES_PERSISTED) == CHUNK
        assert engine.metrics.value(M.DANGLING) == 1
        with pytest.raises(EngineClosedError):
            engine.begin(step=3)
        engine.close()
        # Nothing the failed fence should have hardened survives a crash.
        inner.crash()
        inner.recover()
        found = recover(DeviceLayout.open(inner))
        assert (found.meta.step, bytes(found.payload)) == (1, b"f" * CHUNK)
