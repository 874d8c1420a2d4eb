"""Staging buffers that stage 2 MiB or more are huge-page backed.

A ``PinnedBuffer`` advises its whole mapping ``MADV_HUGEPAGE`` the first
time a fill, an append or a window fill takes the staged extent to
``HUGE_PAGE_BYTES``; smaller stagings keep 4 KiB pages.  Where the
pages went is read back from ``/proc/self/smaps``: a mapping's
``VmFlags`` carry ``hg`` once advised, and ``AnonHugePages`` counts the
huge pages faulted into it.  A refused advice leaves the buffer on 4 KiB
pages, the checkpoint commits, and the refusal is counted.
"""

import errno
import mmap
import os

import pytest

from repro.core.orchestrator import INLINE_WRITE_MAX_BYTES
from repro.core.snapshot import BytesSource
from repro.obs import M
from repro.obs.metrics import MetricsRegistry
from repro.service.batching import CoalescingBatcher
from repro.service.pool import EnginePool, EngineSpec, build_stack
from repro.service.service import ServiceTicket
from repro.storage.device import buffer_address
from repro.storage.dram import HUGE_PAGE_BYTES, DRAMBufferPool, PinnedBuffer

SMAPS = "/proc/self/smaps"
THP_ENABLED = "/sys/kernel/mm/transparent_hugepage/enabled"
MiB = 1 << 20
WAIT = 10.0

needs_smaps = pytest.mark.skipif(
    not os.path.exists(SMAPS), reason="no /proc/self/smaps on this platform"
)


def mapping_of(buffer):
    """``(start, end, fields)`` of the smaps entry holding ``buffer``'s
    first byte: ``fields`` maps each ``Key:`` line to its value."""
    address = buffer_address(memoryview(buffer.data))
    entry = None
    with open(SMAPS) as smaps:
        for line in smaps:
            head = line.split(None, 1)[0]
            if not head.endswith(":"):
                if entry is not None:
                    break
                start, end = (int(x, 16) for x in head.split("-"))
                if start <= address < end:
                    entry = (start, end, {})
            elif entry is not None:
                entry[2][head[:-1]] = line.split(None, 1)[1].strip()
    assert entry is not None, f"no mapping holds {address:#x}"
    return entry


def advised(buffer):
    return "hg" in mapping_of(buffer)[2]["VmFlags"].split()


def pool_buffers(pool):
    """Every buffer of a quiescent ``pool``, taken out (give them back
    with :func:`give_back`)."""
    buffers = []
    while (buffer := pool.try_acquire()) is not None:
        buffers.append(buffer)
    assert len(buffers) == pool.total_chunks
    return buffers


def give_back(pool, buffers):
    for buffer in buffers:
        pool.release(buffer)


class CountingMap(mmap.mmap):
    """An anonymous mapping that counts its ``madvise`` calls."""

    calls = 0

    def madvise(self, *args):
        type(self).calls += 1
        return super().madvise(*args)


class RefusingMap(mmap.mmap):
    """An anonymous mapping whose ``madvise`` fails like a kernel
    without transparent huge pages."""

    def madvise(self, *args):
        raise OSError(errno.EINVAL, "madvise refused")


def anonymous(cls, size):
    return cls(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)


class TestTheStagedExtentDecides:
    def test_the_stage_that_reaches_one_huge_page_advises_once(self):
        pool = DRAMBufferPool(1, 8 * MiB)
        buffer = pool.acquire()
        buffer.data = anonymous(CountingMap, 8 * MiB)
        CountingMap.calls = 0
        buffer.fill(b"s" * (HUGE_PAGE_BYTES - 1))
        buffer.append(b"t")  # the extent reaches 2 MiB exactly
        assert CountingMap.calls == 1
        buffer.fill(b"u" * (4 * MiB))
        assert CountingMap.calls == 1
        assert pool.huge_page_refusals == 0
        assert bytes(buffer.view()) == b"u" * (4 * MiB)

    def test_a_buffer_smaller_than_one_huge_page_never_asks(self):
        buffer = PinnedBuffer(0, HUGE_PAGE_BYTES - 4096)
        buffer.data = anonymous(CountingMap, buffer.size)
        CountingMap.calls = 0
        buffer.fill(b"x" * buffer.size)
        assert CountingMap.calls == 0

    def test_streamed_windows_advise_their_parent_once(self):
        """An 8 MiB one-chunk checkpoint streams four 2 MiB windows of
        one pool buffer: one ``madvise``, on the parent mapping, and none
        on the next checkpoint through the same buffer."""
        total = 8 * MiB
        assert total > INLINE_WRITE_MAX_BYTES
        stack = build_stack(
            EngineSpec(capacity_bytes=total, backend="pmem", num_chunks=1)
        )
        try:
            (buffer,) = pool_buffers(stack.dram)
            buffer.data = anonymous(CountingMap, buffer.size)
            give_back(stack.dram, [buffer])
            CountingMap.calls = 0
            payload = os.urandom(total)
            for step in (1, 2):
                assert stack.orchestrator.checkpoint_sync(
                    BytesSource(payload), step=step
                ).committed
                assert CountingMap.calls == 1
            assert stack.dram.huge_page_refusals == 0
        finally:
            stack.close()


class TestARefusedAdviceIsCountedNotFatal:
    def test_madvise_raising_leaves_4k_pages_and_counts_once(self):
        pool = DRAMBufferPool(1, 4 * MiB)
        registry = MetricsRegistry()
        pool.attach_metrics(registry)
        buffer = pool.acquire()
        buffer.data = anonymous(RefusingMap, 4 * MiB)
        buffer.fill(b"a" * (3 * MiB))
        buffer.fill(b"b" * (4 * MiB))
        assert bytes(buffer.view()) == b"b" * (4 * MiB)
        assert pool.huge_page_refusals == 1
        assert registry.value(M.DRAM_HUGE_PAGE_REFUSALS) == 1

    def test_a_platform_without_the_advice_counts_a_refusal(self, monkeypatch):
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
        pool = DRAMBufferPool(1, 4 * MiB)
        buffer = pool.acquire()
        buffer.append(b"c" * (2 * MiB))
        assert pool.huge_page_refusals == 1

    def test_a_checkpoint_commits_and_the_stack_registry_shows_it(self):
        total = 4 * MiB
        stack = build_stack(
            EngineSpec(capacity_bytes=total, backend="pmem", num_chunks=1)
        )
        try:
            (buffer,) = pool_buffers(stack.dram)
            buffer.data = anonymous(RefusingMap, buffer.size)
            give_back(stack.dram, [buffer])
            payload = os.urandom(total)
            assert stack.orchestrator.checkpoint_sync(
                BytesSource(payload), step=1
            ).committed
            assert stack.engine.metrics.value(M.DRAM_HUGE_PAGE_REFUSALS) == 1
            assert stack.dram.huge_page_refusals == 1
            committed = stack.engine.committed()
            assert stack.layout.read_payload(committed) == payload
        finally:
            stack.close()


@needs_smaps
class TestWhereTheHugePagesGo:
    def test_an_8_mib_checkpoint_stages_into_huge_pages(self, tmp_path):
        """After an 8 MiB one-chunk checkpoint on an O_DIRECT region, at
        least 90% of the staging mapping is ``AnonHugePages``."""
        try:
            with open(THP_ENABLED) as setting:
                if "[never]" in setting.read():
                    pytest.skip("transparent huge pages are off")
        except OSError:
            pytest.skip("no transparent huge pages on this kernel")
        total = 8 * MiB
        stack = build_stack(EngineSpec(
            capacity_bytes=total, path=str(tmp_path / "region"), num_chunks=1,
        ))
        try:
            if not stack.device.direct_io:
                pytest.skip("the filesystem refuses O_DIRECT")
            assert stack.orchestrator.checkpoint_sync(
                BytesSource(os.urandom(total)), step=1
            ).committed
            assert stack.device.fallback_write_ops == 0
            (buffer,) = pool_buffers(stack.dram)
            start, end, fields = mapping_of(buffer)
            huge = int(fields["AnonHugePages"].split()[0]) << 10
            assert "hg" in fields["VmFlags"].split()
            assert min(huge, buffer.size) >= 0.9 * buffer.size, (
                f"{huge} of {buffer.size} staged bytes on huge pages "
                f"(mapping {start:#x}-{end:#x})"
            )
            give_back(stack.dram, [buffer])
        finally:
            stack.close()

    def test_a_256_kib_checkpoint_is_never_advised(self, tmp_path):
        """The ``save_small`` shape: 256 KiB blocking checkpoints."""
        total = 256 << 10
        stack = build_stack(EngineSpec(
            capacity_bytes=total, path=str(tmp_path / "region"),
        ))
        try:
            for step in (1, 2, 3):
                assert stack.orchestrator.checkpoint_sync(
                    BytesSource(os.urandom(total)), step=step
                ).committed
            buffers = pool_buffers(stack.dram)
            assert [advised(buffer) for buffer in buffers] == [False] * 2
            give_back(stack.dram, buffers)
        finally:
            stack.close()

    def test_a_coalesced_128_kib_tenant_is_never_advised(self):
        """The ``service_mix`` batcher: 128 KiB blobs staged into 8 MiB
        pool chunks keep 4 KiB pages."""
        blob = 128 << 10
        spec = EngineSpec(
            capacity_bytes=8 * MiB, chunk_size=8 * MiB, num_chunks=4,
            backend="pmem",
        )
        with EnginePool(spec, size=1, name="huge-page-test") as pool:
            lease = pool.acquire(tag="batch")
            dram = lease.stack.dram
            batcher = CoalescingBatcher(lease, window=0.001)
            try:
                for name in ("t0", "t1"):
                    batcher.register(name, blob)
                for step in (1, 2):
                    tickets = []
                    for name in ("t0", "t1"):
                        ticket = ServiceTicket(name, step, blob)
                        batcher.submit(
                            name, BytesSource(os.urandom(blob)), step, ticket
                        )
                        tickets.append(ticket)
                    for ticket in tickets:
                        assert ticket.result(timeout=WAIT).committed
            finally:
                batcher.close()
            buffers = pool_buffers(dram)
            assert [advised(buffer) for buffer in buffers] == [False] * 4
            give_back(dram, buffers)
