"""A closed stack gives its DRAM staging back at once.

Every owner of a stack ends in ``PCcheckOrchestrator.close``, which
unmaps its staging pool's free buffers once the executor and the writer
pool are joined.  Each test runs with the cyclic garbage collector off,
so a mapping that is gone was unmapped by ``close`` (or freed by
reference counting), never by a collection that happened to run.
"""

import gc
import traceback
import weakref

import pytest

from repro import open_checkpointer
from repro.baselines.pccheck import PCcheckStrategy
from repro.core.config import PCcheckConfig
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import INLINE_WRITE_MAX_BYTES
from repro.core.snapshot import BytesSource
from repro.errors import EngineClosedError
from repro.service.admission import TenantSpec
from repro.service.pool import EnginePool, EngineSpec, build_stack
from repro.service.service import CheckpointService
from repro.storage.dram import DRAMBufferPool
from repro.storage.ssd import InMemorySSD
from repro.storage.tiering import TierPlan
from tests.core.test_one_chunk_path import NUM_CONCURRENT, ProbeDevice

PAYLOAD = 64 << 10
WAIT = 10.0


@pytest.fixture(autouse=True)
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def mappings(dram):
    """The ``mmap`` under every buffer of a quiescent staging pool."""
    buffers = []
    while (buffer := dram.try_acquire()) is not None:
        buffers.append(buffer)
    assert len(buffers) == dram.total_chunks
    for buffer in buffers:
        dram.release(buffer)
    return [buffer.data for buffer in buffers]


def staged(dram):
    """Stage a few bytes into every buffer, so each mapping has pages."""
    buffers = [dram.acquire() for _ in range(dram.total_chunks)]
    for buffer in buffers:
        buffer.fill(b"s" * 4096)
    for buffer in buffers:
        dram.release(buffer)


def checkpoint_twice(ckpt):
    for step in (1, 2):
        assert ckpt.checkpoint(bytes([step]) * PAYLOAD, step=step).committed


CHECKPOINTERS = {
    "plain": dict(),
    "striped": dict(stripe_devices=2, stripe_size=16 << 10),
    "tiered": dict(tiers=TierPlan(demote_threads=1)),
    "pmem": dict(backend="pmem"),
}


class TestEveryOwnerUnmapsOnClose:
    @pytest.mark.parametrize("shape", sorted(CHECKPOINTERS))
    def test_checkpointer_close(self, tmp_path, shape):
        options = CHECKPOINTERS[shape]
        path = None if "backend" in options else str(tmp_path / "region")
        ckpt = open_checkpointer(
            path, capacity_bytes=PAYLOAD, observability="off", **options
        )
        checkpoint_twice(ckpt)
        maps = mappings(ckpt._stack.dram)
        ckpt.close()
        assert [m.closed for m in maps] == [True] * len(maps)

    def test_engine_stack_stop_keeps_the_device(self):
        stack = build_stack(EngineSpec(capacity_bytes=PAYLOAD, backend="pmem"))
        staged(stack.dram)
        maps = mappings(stack.dram)
        report = stack.stop()
        assert all(m.closed for m in maps)
        assert report["unreleased_buffers"] == 0
        assert report["leaked_buffers"] == 0
        with pytest.raises(EngineClosedError):
            stack.dram.acquire()
        stack.device.close()

    def test_strategy_close(self):
        geometry = Geometry(num_slots=3, slot_size=PAYLOAD + RECORD_SIZE)
        device = InMemorySSD(capacity=geometry.total_size)
        strategy = PCcheckStrategy(
            device, PAYLOAD, PCcheckConfig(num_concurrent=2)
        )
        strategy.checkpoint(b"t" * PAYLOAD, step=1)
        strategy.drain()
        maps = mappings(strategy.orchestrator._pool)  # noqa: SLF001
        strategy.close()
        assert all(m.closed for m in maps)

    def test_engine_pool_close(self):
        pool = EnginePool(
            EngineSpec(capacity_bytes=PAYLOAD, backend="pmem"), size=2
        )
        leases = [pool.acquire(tag=f"t{i}") for i in range(2)]
        maps = []
        for lease in leases:
            staged(lease.stack.dram)
            maps += mappings(lease.stack.dram)
            lease.release()
        report = pool.close()
        assert len(maps) == 4 and all(m.closed for m in maps)
        assert report["unreleased_buffers"] == 0

    def test_service_close(self):
        service = CheckpointService.create(
            EngineSpec(capacity_bytes=PAYLOAD, backend="pmem"), pool_size=1
        )
        service.register(TenantSpec("a", PAYLOAD))
        service.checkpoint_async("a", b"a" * PAYLOAD, step=1).wait(WAIT)
        (stack,) = [
            stack for stack in service.pool._stacks if stack is not None
        ]
        maps = mappings(stack.dram)
        report = service.close()
        assert all(m.closed for m in maps)
        assert report["leaked_buffers"] == 0
        assert report["unreleased_buffers"] == 0


class TestSharedSeats:
    def test_a_retired_seat_is_unmapped(self):
        with EnginePool(
            EngineSpec(capacity_bytes=PAYLOAD, backend="pmem"), size=1
        ) as pool:
            lease = pool.acquire(tag="t")
            staged(lease.stack.dram)
            maps = mappings(lease.stack.dram)
            lease.stack.orchestrator._fatal = RuntimeError("device died")
            lease.release()
            assert all(m.closed for m in maps)

    def test_a_lease_on_a_shared_pool_keeps_its_seat_mapped(self, tmp_path):
        with EnginePool(
            EngineSpec(capacity_bytes=PAYLOAD, path=str(tmp_path / "r")),
            size=1,
        ) as pool:
            ckpt = open_checkpointer(pool=pool)
            checkpoint_twice(ckpt)
            dram = ckpt._stack.dram
            maps = mappings(dram)
            ckpt.close()
            assert not any(m.closed for m in maps)
            # The warm seat serves the next tenant from the same staging.
            with open_checkpointer(pool=pool) as again:
                assert again._stack.dram is dram
                assert again.checkpoint(b"x" * PAYLOAD, step=3).committed
        assert all(m.closed for m in maps)


class TestAnExportedViewIsCountedNotRaised:
    def test_a_view_held_across_close(self):
        stack = build_stack(EngineSpec(capacity_bytes=PAYLOAD, backend="pmem"))
        buffer = stack.dram.acquire()
        buffer.fill(b"v" * PAYLOAD)
        view = buffer.view()
        mapping = weakref.ref(buffer.data)
        stack.dram.release(buffer)
        report = stack.close()
        assert report["unreleased_buffers"] == 1
        assert report["leaked_buffers"] == 0
        assert mapping() is not None and not mapping().closed
        assert bytes(view[:4]) == b"vvvv"
        del view
        assert mapping() is None

    def test_a_checked_out_buffer_is_left_alone(self):
        pool = DRAMBufferPool(2, 4096)
        held, free = pool.acquire(), pool.acquire()
        held.fill(b"h" * 4096)
        pool.release(free)
        pool.close()
        assert free.data.closed
        assert not held.data.closed
        assert pool.unreleased_buffers == 0
        assert bytes(held.view()) == b"h" * 4096

    def test_a_view_on_a_retired_seat_counts_in_the_pool_report(self):
        pool = EnginePool(
            EngineSpec(capacity_bytes=PAYLOAD, backend="pmem"), size=1
        )
        lease = pool.acquire(tag="t")
        dram = lease.stack.dram
        buffer = dram.acquire()
        buffer.fill(b"r" * PAYLOAD)
        view = buffer.view()
        mapping = weakref.ref(buffer.data)
        dram.release(buffer)
        del buffer
        lease.stack.orchestrator._fatal = RuntimeError("device died")
        lease.release()
        assert pool.leak_report()["engines"] == []
        assert pool.close()["unreleased_buffers"] == 1
        del view
        assert mapping() is None

    def test_close_is_idempotent(self):
        pool = DRAMBufferPool(1, 4096)
        pool.close()
        pool.close()
        assert pool.unreleased_buffers == 0
        with pytest.raises(EngineClosedError):
            pool.try_acquire()


class FailingCapture(BytesSource):
    """Stages its bytes, then fails with a view of the buffer still in
    the failing frame."""

    def capture_chunk(self, offset, length, buffer):
        super().capture_chunk(offset, length, buffer)
        staged = buffer.view()  # noqa: F841 - the frame keeps it
        raise ValueError("copy failed")


STREAMED = 2 * INLINE_WRITE_MAX_BYTES + 4097
#: ``(capacity, chunk_size, writer_threads)`` per path a checkpoint takes.
PATHS = {
    "inline": (4096, None, 1),
    "streamed": (STREAMED, None, 2),
    "pipelined": (3 * 4096, 4096, 1),
}


def probe_stack(path):
    capacity, chunk_size, writers = PATHS[path]
    spec = EngineSpec(capacity_bytes=capacity, num_concurrent=NUM_CONCURRENT,
                      writer_threads=writers, chunk_size=chunk_size)
    return build_stack(spec, device=ProbeDevice(capacity=capacity))


class TestAFailedCheckpointKeepsNoView:
    """The error a failed checkpoint raises may outlive the stack; its
    traceback must not keep the staging mapped."""

    @pytest.mark.parametrize("blocking", [True, False],
                             ids=["blocking", "async"])
    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("failure", ["write", "capture"])
    def test_the_held_error_leaves_the_staging_unmapped(
        self, path, blocking, failure
    ):
        stack = probe_stack(path)
        capacity = PATHS[path][0]
        if failure == "capture":
            source, error = FailingCapture(b"c" * capacity), ValueError
        else:
            source, error = BytesSource(b"w" * capacity), OSError
            if path == "inline":
                stack.device.fail_next_write = OSError("EIO")
            else:  # a later piece's write
                stack.device.fail_write_past = (capacity // 2, OSError("EIO"))
        orchestrator = stack.orchestrator
        with pytest.raises(error) as info:
            if blocking:
                orchestrator.checkpoint_sync(source, step=1)
            else:
                orchestrator.checkpoint_async(source, step=1).wait(WAIT)
        maps = mappings(stack.dram)
        report = stack.close()
        assert report["unreleased_buffers"] == 0
        assert report["leaked_buffers"] == 0
        assert all(m.closed for m in maps)
        # The error still tells where it came from.
        printed = "".join(traceback.format_exception(info.value))
        where = "capture_chunk" if failure == "capture" else "write"
        assert f"in {where}\n" in printed


class TestNoReferenceCycles:
    def test_a_dropped_pool_frees_its_buffers_without_the_collector(self):
        pool = DRAMBufferPool(2, 4 << 20)
        buffer = pool.acquire()
        buffer.fill(b"w" * (3 << 20))  # past one huge page: advised
        window = buffer.window(0, 4096)
        window.fill(b"x")
        del window
        pool.release(buffer)
        buffer_ref, mapping_ref = weakref.ref(buffer), weakref.ref(buffer.data)
        del buffer
        del pool
        assert buffer_ref() is None
        assert mapping_ref() is None
