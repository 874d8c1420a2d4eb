"""Tests for batched submission (submit/reap) and aligned share splits."""

import threading
import time

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.core.writer import ParallelWriter, split_range
from repro.errors import CrashedDeviceError
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.faults import CrashPointDevice, OpCountSchedule
from repro.storage.ssd import InMemorySSD


class TestAlignedSplitRange:
    def test_default_align_unchanged(self):
        assert split_range(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_aligned_shares_start_on_align_boundaries(self):
        shares = split_range(100_000, 3, align=4096)
        for lo, _hi in shares:
            assert lo % 4096 == 0
        assert shares[0][0] == 0
        assert shares[-1][1] == 100_000

    def test_aligned_shares_cover_exactly(self):
        for length in (1, 4095, 4096, 4097, 123_457):
            shares = split_range(length, 4, align=4096)
            covered = 0
            prev_hi = 0
            for lo, hi in shares:
                assert lo == prev_hi
                assert hi > lo
                covered += hi - lo
                prev_hi = hi
            assert covered == length

    def test_align_larger_than_length_single_share(self):
        assert split_range(100, 4, align=4096) == [(0, 100)]


class TestSubmitReap:
    def test_submit_then_reap_writes_batch(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=2) as writer:
            pieces = [(0, b"a" * 4096), (4096, b"b" * 4096)]
            submission = writer.submit(pieces)
            writer.reap(submission)
            assert submission.reaped
            assert writer.bytes_persisted == 8192
            assert device.read(0, 8192) == b"a" * 4096 + b"b" * 4096
            # Written, not yet fenced: durability is the caller's fence.
            assert device.unpersisted_bytes == 8192
        device.close()

    def test_reap_is_idempotent(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=2) as writer:
            submission = writer.submit([(0, b"x" * 100)])
            writer.reap(submission)
            fences = device.stats.persist_ops
            writer.reap(submission)
            assert device.stats.persist_ops == fences
        device.close()

    def test_reap_issues_no_fence_in_single_mode(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=2) as writer:
            pieces = [(i * 4096, b"z" * 4096) for i in range(6)]
            before = device.stats.persist_ops
            writer.reap(writer.submit(pieces))
            assert device.stats.persist_ops == before
        device.close()

    def test_persist_is_write_then_one_covering_fence(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=3) as writer:
            before = device.stats.persist_ops
            writer.persist(0, b"p" * 12288)
            assert device.stats.persist_ops - before == 1
            assert device.unpersisted_bytes == 0
        device.close()

    def test_empty_submission_reaps_cleanly(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=2) as writer:
            submission = writer.submit([])
            assert submission.writes_done
            writer.reap(submission)
        device.close()

    def test_submit_after_close_runs_inline_at_reap(self):
        device = InMemorySSD(1 << 20)
        writer = ParallelWriter(device, num_threads=2)
        writer.close()
        submission = writer.submit([(0, b"late" * 256)])
        writer.reap(submission)
        assert device.read(0, 4) == b"late"
        device.close()

    def test_inline_submission_is_not_done_until_reaped(self):
        device = InMemorySSD(1 << 20)
        writer = ParallelWriter(device, num_threads=2)
        writer.close()
        submission = writer.submit([(0, b"x" * 8192)])
        # The shares only run at reap: nothing is written yet.
        assert not submission.writes_done
        assert writer.bytes_persisted == 0
        writer.reap(submission)
        assert submission.writes_done
        assert writer.bytes_persisted == 8192
        device.close()

    def test_inline_submit_writes_on_the_reaping_thread(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=2) as writer:
            submission = writer.submit([(0, b"i" * 8192)], inline=True)
            assert not submission.writes_done
            assert device.read(0, 1) == b"\x00"
            writer.reap(submission)
            assert submission.writes_done
            assert writer.threads_started == 0
            assert device.read(0, 8192) == b"i" * 8192
            # Same fence discipline as the pool: the caller's fence.
            assert device.unpersisted_bytes == 8192
        device.close()

    def test_inline_crash_surfaces_on_reap_and_settles(self):
        """The crash lands on the second piece's write: an inline piece
        is one device write, so the first piece took the one op the
        budget allows."""
        inner = InMemorySSD(1 << 20)
        device = CrashPointDevice(inner, schedule=OpCountSchedule(1))
        with ParallelWriter(device, num_threads=2) as writer:
            submission = writer.submit(
                [(0, b"c" * 8192), (8192, b"d" * 8192)], inline=True
            )
            with pytest.raises(CrashedDeviceError):
                writer.reap(submission)
            assert submission.writes_done
            assert writer.threads_started == 0
            assert inner.stats.write_ops == 1

    def test_inline_piece_is_one_write_on_a_single_fence_device(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=3) as writer:
            writer.reap(writer.submit(
                [(0, b"a" * 8192), (8192, b"b" * 8192)], inline=True
            ))
            assert device.stats.write_ops == 2
            assert device.stats.persist_ops == 0
            assert device.read(0, 16384) == b"a" * 8192 + b"b" * 8192
        device.close()

    def test_inline_per_thread_device_keeps_its_fenced_shares(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(
            device, num_threads=3, fence_mode="per-thread"
        ) as writer:
            writer.reap(writer.submit([(0, b"p" * 9000)], inline=True))
            assert device.stats.write_ops == 3
            assert device.stats.persist_ops == 3
            assert device.unpersisted_bytes == 0
        device.close()

    def test_crash_during_batch_surfaces_on_reap(self):
        inner = InMemorySSD(1 << 20)
        device = CrashPointDevice(inner, schedule=OpCountSchedule(2))
        with ParallelWriter(device, num_threads=2) as writer:
            submission = writer.submit(
                [(i * 4096, b"c" * 4096) for i in range(8)]
            )
            with pytest.raises(CrashedDeviceError):
                writer.reap(submission)

    def test_writes_done_becomes_true_without_reap(self):
        device = InMemorySSD(1 << 20)
        with ParallelWriter(device, num_threads=2) as writer:
            submission = writer.submit([(0, b"w" * 8192)])
            deadline = time.monotonic() + 5.0
            while not submission.writes_done:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert submission.done_at is not None
            writer.reap(submission)
        device.close()


def _make_engine(metrics=None, write_bandwidth=None, capacity=1 << 20):
    device = InMemorySSD(capacity, write_bandwidth=write_bandwidth)
    layout = DeviceLayout.format(device, num_slots=3, slot_size=96 * 1024)
    engine = CheckpointEngine(layout, writer_threads=2, metrics=metrics)
    return device, engine


class TestTicketPipelining:
    def test_submit_chunk_then_reap_then_commit(self):
        device, engine = _make_engine()
        ticket = engine.begin(step=1)
        sub1 = ticket.submit([b"1" * 8192])
        sub2 = ticket.submit([b"2" * 8192])
        assert ticket.pending_submissions == 2
        ticket.reap(sub1)
        assert ticket.pending_submissions == 1
        meta = ticket.commit()  # settles sub2 itself
        assert ticket.pending_submissions == 0
        assert meta.payload_len == 16384
        engine.close()
        device.close()

    def test_commit_reaps_outstanding_submissions(self):
        device, engine = _make_engine()
        ticket = engine.begin(step=2)
        for i in range(4):
            ticket.submit([bytes([i]) * 4096])
        meta = ticket.commit()
        assert meta.payload_len == 4 * 4096
        recovered = engine.committed()
        assert recovered is not None and recovered.counter == meta.counter
        engine.close()
        device.close()

    def test_abort_settles_submissions_and_frees_slot(self):
        device, engine = _make_engine()
        free_before = engine.free_slots
        ticket = engine.begin(step=3)
        ticket.submit([b"gone" * 1024])
        ticket.abort()
        assert ticket.pending_submissions == 0
        assert engine.free_slots == free_before
        engine.close()
        device.close()

    def test_overlap_metric_accrues_on_throttled_device(self):
        metrics = MetricsRegistry()
        # 20 MB/s model: each 16 KiB chunk spends ~0.8 ms in the device,
        # plenty for the next chunk's CRC to overlap with.
        device, engine = _make_engine(metrics=metrics, write_bandwidth=20e6)
        ticket = engine.begin(step=4)
        for i in range(4):
            ticket.submit([b"o" * 16_384])
        ticket.commit()
        assert metrics.value(M.PIPELINE_OVERLAP_SECONDS) > 0
        engine.close()
        device.close()

    def test_pipelined_payload_recovers_bit_identically(self):
        import os as _os

        from repro.core.recovery import recover

        device, engine = _make_engine()
        payload = _os.urandom(40_000)
        ticket = engine.begin(step=5)
        view = memoryview(payload)
        for lo in range(0, len(payload), 8192):
            ticket.submit([view[lo : lo + 8192]])
        ticket.commit()
        engine.close()
        recovered = recover(DeviceLayout.open(device))
        assert recovered.payload == payload
        device.close()
