"""Tests for the file-backed and in-memory SSD devices."""

import os
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.errors import CrashedDeviceError, DeviceClosedError, OutOfSpaceError
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.ssd import SECTOR_SIZE, FileBackedSSD, InMemorySSD


class TestFileBackedSSD:
    def test_write_read_roundtrip(self, tmp_path):
        with FileBackedSSD(str(tmp_path / "d.bin"), capacity=1024) as dev:
            dev.write(100, b"persist me")
            assert dev.read(100, 10) == b"persist me"

    def test_file_is_preallocated(self, tmp_path):
        path = tmp_path / "d.bin"
        with FileBackedSSD(str(path), capacity=4096):
            assert path.stat().st_size == 4096

    def test_persist_calls_fsync_without_error(self, tmp_path):
        with FileBackedSSD(str(tmp_path / "d.bin"), capacity=1024) as dev:
            dev.write(0, b"x" * 512)
            dev.persist(0, 512)
            assert dev.stats.persist_ops == 1

    def test_contents_survive_reopen(self, tmp_path):
        path = str(tmp_path / "d.bin")
        with FileBackedSSD(path, capacity=1024) as dev:
            dev.write(10, b"still here")
            dev.persist_all()
        with FileBackedSSD(path, capacity=1024) as dev:
            assert dev.read(10, 10) == b"still here"

    def test_out_of_range_rejected(self, tmp_path):
        with FileBackedSSD(str(tmp_path / "d.bin"), capacity=64) as dev:
            with pytest.raises(OutOfSpaceError):
                dev.write(60, b"too much")

    def test_closed_device_rejects_operations(self, tmp_path):
        dev = FileBackedSSD(str(tmp_path / "d.bin"), capacity=64)
        dev.close()
        with pytest.raises(DeviceClosedError):
            dev.read(0, 1)


class TestInMemorySSD:
    def test_write_read_roundtrip(self):
        dev = InMemorySSD(capacity=1024)
        dev.write(0, b"hello")
        assert dev.read(0, 5) == b"hello"

    def test_unsynced_write_lost_on_crash(self):
        dev = InMemorySSD(capacity=1024)
        dev.write(0, b"gone")
        dev.crash()
        dev.recover()
        assert dev.read(0, 4) == bytes(4)

    def test_msynced_write_survives_crash(self):
        dev = InMemorySSD(capacity=1024)
        dev.write(0, b"kept")
        dev.persist(0, 4)
        dev.crash()
        dev.recover()
        assert dev.read(0, 4) == b"kept"

    def test_persist_range_is_selective(self):
        dev = InMemorySSD(capacity=1024)
        dev.write(0, b"aaaa")
        dev.write(512, b"bbbb")
        dev.persist(0, 4)
        dev.crash()
        dev.recover()
        assert dev.read(0, 4) == b"aaaa"
        assert dev.read(512, 4) == bytes(4)

    def test_unpersisted_bytes_tracking(self):
        dev = InMemorySSD(capacity=1024)
        dev.write(0, b"x" * 100)
        assert dev.unpersisted_bytes == 100
        dev.persist(0, 50)
        assert dev.unpersisted_bytes == 50

    def test_crashed_device_rejects_operations(self):
        dev = InMemorySSD(capacity=64)
        dev.crash()
        with pytest.raises(CrashedDeviceError):
            dev.write(0, b"x")

    def test_partial_crash_application(self):
        dev = InMemorySSD(capacity=64 * 20)
        dev.write(0, b"S" * (64 * 20))
        rng = np.random.default_rng(3)
        dev.crash(rng)
        dev.recover()
        surviving = dev.read(0, 64 * 20)
        lines = {surviving[i * 64 : (i + 1) * 64] for i in range(20)}
        assert lines <= {b"S" * 64, bytes(64)}

    def test_rewrite_after_persist_then_crash_keeps_old_value(self):
        """A persisted value overwritten but not re-synced may roll back."""
        dev = InMemorySSD(capacity=1024)
        dev.write(0, b"old!")
        dev.persist(0, 4)
        dev.write(0, b"new!")
        dev.crash()
        dev.recover()
        assert dev.read(0, 4) == b"old!"


def _sector_aligned_buffer(length, fill=0x5A):
    """A numpy byte view whose base address is 4096-aligned."""
    raw = np.full(length + SECTOR_SIZE, fill, dtype=np.uint8)
    shift = (-raw.ctypes.data) % SECTOR_SIZE
    return raw[shift : shift + length]


class TestUnbufferedFileBackedSSD:
    def test_default_is_buffered(self, tmp_path):
        with FileBackedSSD(str(tmp_path / "d.bin"), capacity=8192) as dev:
            assert not dev.unbuffered
            assert dev.preferred_align == 1

    def test_unbuffered_reports_sector_align(self, tmp_path):
        with FileBackedSSD(
            str(tmp_path / "d.bin"), capacity=8192, unbuffered=True
        ) as dev:
            assert dev.unbuffered
            assert dev.preferred_align == SECTOR_SIZE

    def test_aligned_write_takes_direct_path(self, tmp_path):
        with FileBackedSSD(
            str(tmp_path / "d.bin"), capacity=64 * 1024, unbuffered=True
        ) as dev:
            if not dev.direct_io:
                pytest.skip("filesystem does not support O_DIRECT")
            buf = _sector_aligned_buffer(2 * SECTOR_SIZE)
            dev.write(SECTOR_SIZE, buf)
            assert dev.direct_write_ops == 1
            assert dev.fallback_write_ops == 0
            assert dev.read(SECTOR_SIZE, len(buf)) == bytes(buf)

    def test_misaligned_write_falls_back(self, tmp_path):
        """A write of a sector or more that cannot go direct is a
        fallback; a sub-sector one (a header, a commit record) never
        wanted the direct path and is neither."""
        data = b"not aligned at all" * 300  # > one sector
        with FileBackedSSD(
            str(tmp_path / "d.bin"), capacity=64 * 1024, unbuffered=True
        ) as dev:
            dev.write(3, data)
            assert dev.direct_write_ops == 0
            assert dev.fallback_write_ops == 1
            assert dev.read(3, len(data)) == data
            dev.write(SECTOR_SIZE * 4 + 5, b"header")
            assert (dev.direct_write_ops, dev.fallback_write_ops) == (0, 1)

    def test_ragged_tail_goes_buffered_after_a_direct_prefix(self, tmp_path):
        length = (1 << 20) + 123
        buf = _sector_aligned_buffer(length)
        buf[:] = np.arange(length, dtype=np.uint64).astype(np.uint8)
        with FileBackedSSD(
            str(tmp_path / "d.bin"), capacity=2 << 20, unbuffered=True
        ) as dev:
            if not dev.direct_io:
                pytest.skip("filesystem does not support O_DIRECT")
            registry = MetricsRegistry()
            dev.attach_metrics(registry)
            writes = []
            real_pwrite = os.pwrite

            def spy(fd, data, offset):
                writes.append((fd == dev._direct_fd, offset, len(data)))
                return real_pwrite(fd, data, offset)

            with mock.patch("repro.storage.ssd.os.pwrite", spy):
                dev.write(SECTOR_SIZE, buf)
            prefix = length - 123
            assert writes == [
                (True, SECTOR_SIZE, prefix),
                (False, SECTOR_SIZE + prefix, 123),
            ]
            assert (dev.direct_write_ops, dev.fallback_write_ops) == (1, 0)
            assert registry.value(M.DEVICE_DIRECT_WRITES, device=dev.name) == 1
            assert registry.value(M.DEVICE_FALLBACK_WRITES, device=dev.name) == 0
            dev.persist_all()
            assert dev.read(SECTOR_SIZE, length) == bytes(buf)

    def test_write_paths_are_registry_series(self, tmp_path):
        with FileBackedSSD(
            str(tmp_path / "d.bin"), capacity=64 * 1024, unbuffered=True
        ) as dev:
            registry = MetricsRegistry()
            dev.attach_metrics(registry)
            dev.write(0, _sector_aligned_buffer(2 * SECTOR_SIZE))
            dev.write(1, bytes(SECTOR_SIZE))  # misaligned: a fallback
            dev.write(3 * SECTOR_SIZE, bytes(64))  # sub-sector: neither
            direct = 1 if dev.direct_io else 0
            assert registry.value(M.DEVICE_DIRECT_WRITES, device=dev.name) == direct
            assert registry.value(M.DEVICE_FALLBACK_WRITES, device=dev.name) == 2 - direct
            assert dev.direct_write_ops == direct
            assert dev.fallback_write_ops == 2 - direct

    def test_buffered_device_reports_no_write_path(self, tmp_path):
        with FileBackedSSD(str(tmp_path / "d.bin"), capacity=64 * 1024) as dev:
            registry = MetricsRegistry()
            dev.attach_metrics(registry)
            dev.write(0, _sector_aligned_buffer(2 * SECTOR_SIZE))
            assert (dev.direct_write_ops, dev.fallback_write_ops) == (0, 0)
            assert M.DEVICE_DIRECT_WRITES not in registry.names()
            assert M.DEVICE_FALLBACK_WRITES not in registry.names()

    def test_contents_survive_reopen_unbuffered(self, tmp_path):
        path = str(tmp_path / "d.bin")
        with FileBackedSSD(path, capacity=64 * 1024, unbuffered=True) as dev:
            if dev.direct_io:
                buf = _sector_aligned_buffer(SECTOR_SIZE, fill=0x42)
                dev.write(0, buf)
            dev.write(8192, b"tail bytes")
            dev.persist_all()
        with FileBackedSSD(path, capacity=64 * 1024) as dev:
            assert dev.read(8192, 10) == b"tail bytes"

    def test_mixed_direct_and_fallback_roundtrip(self, tmp_path):
        with FileBackedSSD(
            str(tmp_path / "d.bin"), capacity=64 * 1024, unbuffered=True
        ) as dev:
            aligned = _sector_aligned_buffer(SECTOR_SIZE, fill=0x11)
            dev.write(0, aligned)
            dev.write(SECTOR_SIZE, b"odd-sized trailer")
            assert dev.read(0, SECTOR_SIZE) == bytes(aligned)
            assert dev.read(SECTOR_SIZE, 17) == b"odd-sized trailer"


class TestInMemorySSDBandwidthModel:
    def test_write_bandwidth_delays_writes(self):
        slow = InMemorySSD(1 << 20, write_bandwidth=1e6)  # 1 MB/s model
        start = time.perf_counter()
        slow.write(0, b"x" * 100_000)  # 0.1 s modelled channel time
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.09
        assert slow.read(0, 5) == b"xxxxx"

    def test_concurrent_writes_overlap_channel_time(self):
        slow = InMemorySSD(1 << 20, write_bandwidth=1e6)
        chunk = b"y" * 50_000  # 0.05 s each

        def one(off):
            slow.write(off, chunk)

        threads = [
            threading.Thread(target=one, args=(i * 50_000,)) for i in range(4)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        # Serialized would be >= 0.2 s; the channel model overlaps them.
        assert elapsed < 0.15

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(Exception):
            InMemorySSD(1024, write_bandwidth=0)
