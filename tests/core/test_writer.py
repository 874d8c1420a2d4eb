"""Tests for the parallel writer pool and fence disciplines."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.writer import ParallelWriter, default_fence_mode, split_range
from repro.errors import EngineError
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import InMemorySSD
from repro.storage.striped import STRIPE_HEADER_SIZE, StripedDevice


class TestSplitRange:
    def test_even_split(self):
        assert split_range(12, 3) == [(0, 4), (4, 8), (8, 12)]

    def test_uneven_split_front_loads_extra(self):
        assert split_range(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_bytes(self):
        assert split_range(2, 5) == [(0, 1), (1, 2)]

    def test_zero_length(self):
        assert split_range(0, 3) == []

    def test_invalid_parts_rejected(self):
        with pytest.raises(EngineError):
            split_range(10, 0)

    def test_negative_length_rejected(self):
        with pytest.raises(EngineError):
            split_range(-1, 2)

    @given(length=st.integers(0, 10_000), parts=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_shares_partition_the_range(self, length, parts):
        shares = split_range(length, parts)
        assert sum(hi - lo for lo, hi in shares) == length
        cursor = 0
        for lo, hi in shares:
            assert lo == cursor
            assert hi > lo
            cursor = hi
        if shares:
            sizes = [hi - lo for lo, hi in shares]
            assert max(sizes) - min(sizes) <= 1


class OneChannelSSD(InMemorySSD):
    """A bandwidth-limited SSD whose single channel serves one write at a
    time — shares sent to it queue, shares sent to two of them overlap."""

    def __init__(self, capacity, name="one-channel"):
        super().__init__(capacity, name, write_bandwidth=2e6)
        self._channel = threading.Lock()

    def write(self, offset, data):
        with self._channel:
            super().write(offset, data)


def _persist_seconds(device, threads, payload):
    with ParallelWriter(device, num_threads=threads) as writer:
        writer.persist(0, b"warm the pool" * threads)
        start = time.perf_counter()
        writer.persist(0, payload)
        return time.perf_counter() - start


class TestSplittingModel:
    """Model checks that shares and stripes are split so they CAN overlap,
    on ``time.sleep`` device models — a unit test of ``split_range`` and
    the stripe mapping, explicitly not performance evidence (that is
    ``bench/``, on real files)."""

    PAYLOAD = bytes(200_000)  # 0.1 s of modelled channel time at 2 MB/s

    def test_four_shares_overlap_on_a_channel_parallel_device(self):
        def timed(threads):
            device = InMemorySSD(1 << 20, write_bandwidth=2e6)
            return _persist_seconds(device, threads, self.PAYLOAD)

        assert timed(4) < 0.6 * timed(1)

    def test_two_stripe_members_beat_one_serialised_channel(self):
        stripe = len(self.PAYLOAD) // 2
        capacity = STRIPE_HEADER_SIZE + 2 * stripe
        single = _persist_seconds(
            OneChannelSSD(capacity), 2, self.PAYLOAD
        )
        striped = StripedDevice.create(
            [OneChannelSSD(capacity, f"m{i}") for i in range(2)], stripe
        )
        assert _persist_seconds(striped, 2, self.PAYLOAD) < 0.75 * single
        striped.close()


class TestDefaultFenceMode:
    def test_pmem_gets_per_thread_fences(self):
        assert default_fence_mode(SimulatedPMEM(1024)) == "per-thread"

    def test_ssd_gets_single_msync(self):
        assert default_fence_mode(InMemorySSD(1024)) == "single"


class TestParallelWriter:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_ssd_persist_is_durable(self, threads):
        device = InMemorySSD(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=threads)
        payload = bytes(range(256)) * 64
        writer.persist(128, payload)
        device.crash()
        device.recover()
        assert device.read(128, len(payload)) == payload

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_pmem_persist_is_durable(self, threads):
        device = SimulatedPMEM(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=threads)
        payload = b"\xab" * 10_000
        writer.persist(0, payload)
        device.crash()
        device.recover()
        assert device.read(0, len(payload)) == payload

    def test_pmem_uses_per_thread_fences(self):
        device = SimulatedPMEM(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=4)
        writer.persist(0, b"x" * 4096)
        # Per-thread fencing issues one sfence per share.
        assert device.stats.persist_ops == 4

    def test_ssd_uses_single_msync_for_multithread_write(self):
        device = InMemorySSD(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=4)
        writer.persist(0, b"x" * 4096)
        assert device.stats.persist_ops == 1

    def test_empty_payload_is_noop(self):
        device = InMemorySSD(capacity=1024)
        writer = ParallelWriter(device, num_threads=3)
        writer.persist(0, b"")
        assert device.stats.write_ops == 0

    def test_bytes_persisted_accounting(self):
        device = InMemorySSD(capacity=1 << 16)
        writer = ParallelWriter(device, num_threads=2)
        writer.persist(0, b"a" * 100)
        writer.persist(200, b"b" * 50)
        assert writer.bytes_persisted == 150

    def test_thread_exception_propagates(self):
        device = InMemorySSD(capacity=1024)
        device.crash()
        writer = ParallelWriter(device, num_threads=3)
        with pytest.raises(Exception):
            writer.persist(0, b"x" * 300)

    def test_zero_threads_rejected(self):
        with pytest.raises(EngineError):
            ParallelWriter(InMemorySSD(1024), num_threads=0)

    @given(
        payload=st.binary(min_size=1, max_size=5000),
        threads=st.integers(1, 6),
        offset=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_payload_any_threads_roundtrip(self, payload, threads, offset):
        device = InMemorySSD(capacity=8192)
        writer = ParallelWriter(device, num_threads=threads)
        writer.persist(offset, payload)
        device.crash()
        device.recover()
        assert device.read(offset, len(payload)) == payload
