"""Tests for recovery paths: commit-record fast path and slot-scan fallback.

The second half holds the pre-PR-13 two-pass walker as a reference
implementation and checks the one-pass loader against it, plus the
read-amplification pins that are the point of the one pass.
"""

import sys
import threading
import time
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import invariant, precondition, rule

from repro.core import recovery as recovery_module
from repro.core import writer as writer_module
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    decode_commit_record,
    encode_commit_record,
    encode_slot_header,
    payload_crc,
)
from repro.core.recovery import (
    READ_THREADS,
    find_committed,
    load_validated,
    recover,
    recover_consistent,
    try_recover,
)
from repro.core.writer import ParallelWriter
from repro.errors import ConfigError, NoCheckpointError, TransientIOError
from repro.storage.faults import TransientFaultDevice
from repro.storage.ssd import InMemorySSD
from tests.core.test_stateful import EngineMachine


def make_engine(num_slots=3, payload_capacity=1024):
    slot_size = payload_capacity + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(device, num_slots=num_slots, slot_size=slot_size)
    return CheckpointEngine(layout, writer_threads=2)


class TestFastPath:
    def test_commit_record_found(self):
        engine = make_engine()
        engine.checkpoint(b"hello", step=4)
        recovered = recover(engine.layout)
        assert recovered.source == "commit-record"
        assert recovered.payload == b"hello"

    def test_find_committed_matches_engine_state(self):
        engine = make_engine()
        engine.checkpoint(b"v1", step=1)
        engine.checkpoint(b"v2", step=2)
        assert find_committed(engine.layout) == engine.committed()

    def test_empty_region_raises(self):
        engine = make_engine()
        with pytest.raises(NoCheckpointError):
            recover(engine.layout)
        assert try_recover(engine.layout) is None


class TestSlotScanFallback:
    def test_torn_commit_record_falls_back_to_scan(self):
        engine = make_engine()
        engine.checkpoint(b"survivor", step=9)
        layout = engine.layout
        # Tear the commit record.
        layout.device.write(layout.commit_offset, b"\xff" * RECORD_SIZE)
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.source == "slot-scan"
        assert recovered.payload == b"survivor"
        assert recovered.meta.step == 9

    def test_scan_picks_newest_valid_slot(self):
        engine = make_engine(num_slots=4)
        for step in range(1, 4):
            engine.checkpoint(f"v{step}".encode(), step=step)
        layout = engine.layout
        layout.device.write(layout.commit_offset, bytes(RECORD_SIZE))
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.payload == b"v3"

    def test_scan_rejects_slot_with_overwritten_payload(self):
        """A recycled slot whose payload was overwritten must fail CRC."""
        engine = make_engine()
        engine.checkpoint(b"old-checkpoint", step=1)
        old_meta = engine.committed()
        engine.checkpoint(b"new-checkpoint", step=2)
        layout = engine.layout
        # Corrupt the old (now superseded) slot's payload in place, as a
        # new in-flight checkpoint overwriting it would.
        layout.device.write(layout.payload_offset(old_meta.slot), b"garbage!")
        layout.device.persist_all()
        # Tear the commit record to force the scan path.
        layout.device.write(layout.commit_offset, bytes(RECORD_SIZE))
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.payload == b"new-checkpoint"

    def test_commit_record_pointing_at_stale_header_is_rejected(self):
        """If the commit record's counter mismatches the slot header,
        recovery must distrust it and fall back."""
        engine = make_engine()
        engine.checkpoint(b"first", step=1)
        first = engine.committed()
        engine.checkpoint(b"second", step=2)
        layout = engine.layout
        # Forge a commit record referencing the first checkpoint's slot
        # but with a wrong counter.
        from repro.core.meta import CheckMeta, encode_commit_record

        forged = CheckMeta(
            counter=first.counter + 100,
            slot=first.slot,
            payload_len=first.payload_len,
            payload_crc=first.payload_crc,
            step=first.step,
        )
        layout.device.write(layout.commit_offset, encode_commit_record(forged))
        layout.device.persist_all()
        recovered = recover(layout)
        assert recovered.source == "slot-scan"
        assert recovered.payload == b"second"


class TestEndToEndRestart:
    def test_recover_after_clean_shutdown_and_reopen(self):
        engine = make_engine()
        for step in range(1, 6):
            engine.checkpoint(f"state-{step}".encode(), step=step)
        device = engine.layout.device
        layout = DeviceLayout.open(device)
        recovered = recover(layout)
        assert recovered.payload == b"state-5"
        # Rebuild and continue.
        engine2 = CheckpointEngine(layout, recovered=recovered.meta)
        engine2.checkpoint(b"state-6", step=6)
        assert recover(layout).payload == b"state-6"


# ----------------------------------------------------------------------
# reference implementation: the two-pass walker this repo shipped before
# the one-pass loader (locate by validating every payload, then re-read
# the winner in chunks, join, CRC again)


def _ref_payload_valid(layout, meta):
    if meta.payload_len > layout.payload_capacity:
        return False
    return payload_crc(layout.read_payload(meta)) == meta.payload_crc


def _ref_from_commit_record(layout):
    raw = layout.device.read(layout.commit_offset, RECORD_SIZE)
    meta = decode_commit_record(raw)
    if meta is None or meta.slot >= layout.num_slots:
        return None
    header = layout.read_slot_header(meta.slot)
    if header is None or header.counter != meta.counter:
        return None
    return meta if _ref_payload_valid(layout, meta) else None


def _ref_from_slot_scan(layout):
    best = None
    for header in layout.read_all_slot_headers():
        if header is None or header.payload_len > layout.payload_capacity:
            continue
        if best is not None and header.counter <= best.counter:
            continue
        if _ref_payload_valid(layout, header):
            best = header
    return best


def reference_recover(layout, chunk_size=100):
    """``(meta, payload bytes, source)`` or :class:`NoCheckpointError`."""
    meta, source = _ref_from_commit_record(layout), "commit-record"
    if meta is None:
        meta, source = _ref_from_slot_scan(layout), "slot-scan"
    if meta is None:
        raise NoCheckpointError("reference: no valid checkpoint")
    base = layout.payload_offset(meta.slot)
    payload = b"".join(
        layout.device.read(base + lo, min(chunk_size, meta.payload_len - lo))
        for lo in range(0, meta.payload_len, chunk_size)
    )
    assert payload_crc(payload) == meta.payload_crc
    return meta, payload, source


def outcome(call):
    try:
        found = call()
    except NoCheckpointError as exc:
        return type(exc)
    if isinstance(found, tuple):
        return found
    return found.meta, bytes(found.payload), found.source


def assert_matches_reference(layout):
    expected = outcome(lambda: reference_recover(layout))
    # Both the inline (one chunk) and the pooled (many chunks) datapath.
    assert outcome(lambda: recover(layout)) == expected
    assert outcome(lambda: recover(layout, chunk_size=100)) == expected
    return expected


class RecoveryOracleMachine(EngineMachine):
    """The ``test_stateful`` engine machine, plus rules that damage the
    region the way crashes and recycled slots do.  Whatever state that
    leaves, the one-pass loader and the two-pass reference must return
    the same ``(meta, payload, source)`` or the same typed error."""

    def _slot(self, index):
        return index % self.engine.layout.num_slots

    @rule(fill=st.sampled_from([0x00, 0xFF]))
    def tear_commit_record(self, fill):
        layout = self.engine.layout
        self.device.write(layout.commit_offset, bytes([fill]) * RECORD_SIZE)
        self.device.persist_all()

    @rule(index=st.integers(0, 4), at=st.integers(0, 63))
    def overwrite_payload_under_header(self, index, at):
        """A recycled slot: header intact, payload no longer its own."""
        layout = self.engine.layout
        self.device.write(layout.payload_offset(self._slot(index)) + at, b"\xa5")
        self.device.persist_all()

    @rule(index=st.integers(0, 4))
    def tear_slot_header(self, index):
        layout = self.engine.layout
        self.device.write(layout.slot_offset(self._slot(index)), b"\xff" * 8)
        self.device.persist_all()

    @precondition(lambda self: self.engine.committed() is not None)
    @rule(index=st.integers(0, 4), bump=st.integers(0, 3),
          oversize=st.booleans())
    def forge_commit_record(self, index, bump, oversize):
        """Point the record at some slot, maybe with a counter its header
        does not carry, maybe claiming an impossible length."""
        layout = self.engine.layout
        real = self.engine.committed()
        forged = CheckMeta(
            counter=real.counter + bump, slot=self._slot(index),
            payload_len=(layout.payload_capacity + 1 if oversize
                         else real.payload_len),
            payload_crc=real.payload_crc, step=real.step,
        )
        self.device.write(layout.commit_offset, encode_commit_record(forged))
        self.device.persist_all()

    # The parent's invariant assumes an undamaged region; this machine's
    # claim is agreement with the reference, damaged or not.
    def recovery_matches_model(self):
        pass

    @invariant()
    def loader_matches_two_pass_reference(self):
        if hasattr(self, "engine"):
            assert_matches_reference(self.engine.layout)


TestRecoveryOracle = RecoveryOracleMachine.TestCase
TestRecoveryOracle.settings = settings(
    max_examples=40, deadline=None, stateful_step_count=25
)


class TestOracleFixtures:
    """Hand-built damaged regions, each checked against the reference."""

    def region(self, checkpoints=3, num_slots=4):
        engine = make_engine(num_slots=num_slots)
        for step in range(1, checkpoints + 1):
            engine.checkpoint(bytes([step]) * 700, step=step)
        return engine, engine.layout

    def test_intact_region(self):
        _, layout = self.region()
        meta, _, source = assert_matches_reference(layout)
        assert (meta.step, source) == (3, "commit-record")

    def test_torn_commit_record(self):
        _, layout = self.region()
        layout.device.write(layout.commit_offset, b"\xff" * RECORD_SIZE)
        meta, _, source = assert_matches_reference(layout)
        assert (meta.step, source) == (3, "slot-scan")

    def test_recycled_newest_slot_falls_back_to_the_next(self):
        engine, layout = self.region()
        newest = engine.committed()
        layout.device.write(layout.payload_offset(newest.slot) + 5, b"!")
        meta, _, source = assert_matches_reference(layout)
        assert (meta.step, source) == (2, "slot-scan")

    def test_header_torn_after_payload_write(self):
        engine, layout = self.region()
        layout.device.write(layout.slot_offset(engine.committed().slot), b"\0" * 8)
        meta, _, _ = assert_matches_reference(layout)
        assert meta.step == 2

    def test_oversized_header_is_skipped(self):
        engine, layout = self.region()
        newest = engine.committed()
        huge = CheckMeta(counter=newest.counter + 1, slot=newest.slot,
                         payload_len=layout.payload_capacity + 1,
                         payload_crc=0, step=99)
        layout.device.write(layout.slot_offset(newest.slot),
                            encode_slot_header(huge))
        layout.device.write(layout.commit_offset, bytes(RECORD_SIZE))
        meta, _, _ = assert_matches_reference(layout)
        assert meta.step == 2

    def test_everything_torn_is_the_same_typed_error(self):
        _, layout = self.region()
        for slot in range(layout.num_slots):
            layout.device.write(layout.payload_offset(slot), b"\xff" * 4)
        assert assert_matches_reference(layout) is NoCheckpointError


class TestReadAmplification:
    """``device.stats`` pins: the payload is read once, and only the
    winner's."""

    PAYLOAD_LEN = 700

    def region(self, checkpoints, num_slots=4):
        engine = make_engine(num_slots=num_slots)
        for step in range(1, checkpoints + 1):
            engine.checkpoint(bytes([step]) * self.PAYLOAD_LEN, step=step)
        return engine.layout, engine.layout.device.stats

    def test_commit_record_restore_reads_the_payload_once(self):
        layout, stats = self.region(checkpoints=3)
        before = stats.bytes_read
        recovered = recover(layout)
        assert recovered.source == "commit-record"
        # The record, the header it points at, the payload.  Nothing else.
        assert stats.bytes_read - before == 2 * RECORD_SIZE + self.PAYLOAD_LEN

    def test_slot_scan_reads_only_the_newest_payload(self):
        layout, stats = self.region(checkpoints=4)  # four intact slots
        layout.device.write(layout.commit_offset, bytes(RECORD_SIZE))
        before = stats.bytes_read
        recovered = recover(layout)
        assert (recovered.source, recovered.meta.step) == ("slot-scan", 4)
        assert stats.bytes_read - before == (
            RECORD_SIZE + layout.num_slots * RECORD_SIZE + self.PAYLOAD_LEN
        )

    def test_chunked_restore_is_one_read_op_per_chunk(self):
        layout, stats = self.region(checkpoints=1)
        ops, nbytes = stats.read_ops, stats.bytes_read
        recovered = recover(layout, chunk_size=100)
        assert recovered.payload == bytes([1]) * self.PAYLOAD_LEN
        assert stats.read_ops - ops == 2 + 7  # ceil(700 / 100)
        assert stats.bytes_read - nbytes == 2 * RECORD_SIZE + self.PAYLOAD_LEN

    def test_find_committed_is_the_same_single_pass(self):
        layout, stats = self.region(checkpoints=2)
        before = stats.bytes_read
        assert find_committed(layout).step == 2
        assert stats.bytes_read - before == 2 * RECORD_SIZE + self.PAYLOAD_LEN

    def test_returned_view_is_read_only(self):
        layout, _ = self.region(checkpoints=1)
        for chunk_size in (100, 4096):
            payload = recover(layout, chunk_size=chunk_size).payload
            assert isinstance(payload, memoryview) and payload.readonly
            with pytest.raises(TypeError):
                payload[0] = 0

    def test_refused_payload_is_never_returned(self):
        engine = make_engine()
        engine.checkpoint(b"x" * self.PAYLOAD_LEN, step=1)
        meta = engine.committed()
        engine.layout.device.write(engine.layout.payload_offset(meta.slot), b"y")
        assert load_validated(engine.layout, meta) is None
        assert load_validated(engine.layout, meta, chunk_size=64) is None


class TestPooledReads:
    def test_a_failed_chunk_read_surfaces_and_leaves_no_reader_behind(self):
        engine = make_engine()
        engine.checkpoint(bytes(range(200)) * 4, step=1)
        before = set(threading.enumerate())
        flaky = TransientFaultDevice(
            engine.layout.device, kind="read", occurrence=6, times=1
        )
        layout = DeviceLayout.open(flaky)  # reads 0-1: the superblock
        with pytest.raises(TransientIOError):
            recover(layout, chunk_size=100)  # 2-3: records; 6: a chunk
        assert set(threading.enumerate()) <= before
        assert recover(layout, chunk_size=100).payload == bytes(range(200)) * 4

    def test_reader_parallelism_is_derived_not_configured(self):
        assert 1 <= READ_THREADS <= 4

    def test_every_chunk_is_crcd_on_the_pool_thread_that_read_it(self, monkeypatch):
        engine = make_engine()
        engine.checkpoint(bytes(range(100)) * 7, step=1)
        meta = engine.committed()
        calls = []
        lock = threading.Lock()

        def spy_payload_crc(data, crc=0):
            with lock:
                calls.append((threading.current_thread(), len(data)))
            return payload_crc(data, crc)

        # Every module that could CRC a chunk: the pool's and the loader's.
        monkeypatch.setattr(writer_module, "payload_crc", spy_payload_crc)
        monkeypatch.setattr(recovery_module, "payload_crc", spy_payload_crc)
        payload = load_validated(engine.layout, meta, chunk_size=100)
        assert payload == bytes(range(100)) * 7
        assert sorted(length for _, length in calls) == [100] * 7
        caller = threading.current_thread()
        assert all(thread is not caller for thread, _ in calls)
        assert all(thread.name.startswith("pccheck-writer-") for thread, _ in calls)

    @pytest.mark.parametrize("chunks", [2, 3, 33])
    def test_a_flipped_byte_in_any_one_chunk_refuses_the_payload(self, chunks):
        chunk = 64
        length = (chunks - 1) * chunk + 17  # a short last chunk
        engine = make_engine(payload_capacity=length)
        engine.checkpoint(bytes((i * 7 + 3) & 0xFF for i in range(length)), step=1)
        meta, layout = engine.committed(), engine.layout
        assert load_validated(layout, meta, chunk_size=chunk) is not None
        base = layout.payload_offset(meta.slot)
        for index in sorted({0, chunks // 2, chunks - 1}):
            at = base + index * chunk + 5
            original = layout.device.read(at, 1)
            layout.device.write(at, bytes([original[0] ^ 0x40]))
            assert load_validated(layout, meta, chunk_size=chunk) is None
            layout.device.write(at, original)
        assert load_validated(layout, meta, chunk_size=chunk) is not None

    def test_a_read_after_close_runs_inline_and_carries_its_crc(self):
        device = InMemorySSD(capacity=4096)
        device.write(0, bytes(range(256)) * 16)
        pool = ParallelWriter(device, 2)
        pooled_dest = bytearray(1000)
        pooled = pool.submit_read(10, pooled_dest)
        pool.reap(pooled)
        pool.close()
        inline_dest = bytearray(3000)
        inline = pool.submit_read(7, inline_dest)
        assert inline.batch is None  # no pool: reap runs it on this thread
        pool.reap(inline)
        assert pooled.crc == zlib.crc32(pooled_dest)
        assert inline.crc == zlib.crc32(inline_dest)
        assert bytes(inline_dest) == device.read(7, 3000)


class TestChunkSizeValidation:
    """A read chunk below one byte is a configuration error, never a
    wrong answer (an empty ``range`` of chunks left the buffer unread)."""

    @pytest.mark.parametrize("chunk_size", [0, -4])
    def test_a_non_positive_chunk_size_is_a_config_error(self, chunk_size):
        engine = make_engine()
        engine.checkpoint(bytes(range(100)) * 7, step=1)
        layout, meta = engine.layout, engine.committed()
        with pytest.raises(ConfigError, match="chunk_size"):
            recover(layout, chunk_size=chunk_size)
        with pytest.raises(ConfigError, match="chunk_size"):
            recover_consistent([layout], chunk_size=chunk_size)
        with pytest.raises(ConfigError, match="chunk_size"):
            load_validated(layout, meta, chunk_size)
        assert recover(layout, chunk_size=1).payload == bytes(range(100)) * 7


class TestOnlineReaders:
    def test_readers_racing_a_writer_only_get_validated_payloads(self):
        """More readers than cores poll a region a writer keeps
        recycling, through the pooled datapath.  Whatever they are
        handed must be one whole checkpoint: a chunk landing in the
        wrong slice, or a CRC taken over bytes other than the ones
        returned, shows up as a payload that is not its header's."""
        size = 4096
        engine = make_engine(num_slots=3, payload_capacity=size)
        layout = engine.layout
        stop = threading.Event()
        served, wrong = [], []

        def write():
            step = 0
            while not stop.is_set():
                step += 1
                engine.checkpoint(bytes([step % 251]) * size, step=step)

        def read():
            while not stop.is_set():
                found = try_recover(layout, chunk_size=512)  # 8 pooled chunks
                if found is None:  # nothing yet, or lapped max_attempts times
                    continue
                served.append(found.meta.step)
                if (found.payload != bytes([found.meta.step % 251]) * size
                        or payload_crc(found.payload) != found.meta.payload_crc):
                    wrong.append(found.meta)

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert served and not wrong
