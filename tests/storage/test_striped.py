"""Tests for the striped multi-device persist layer."""

import os

import numpy as np
import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.core.recovery import recover
from repro.core.writer import ParallelWriter
from repro.errors import CorruptCheckpointError, CrashedDeviceError, StorageError
from repro.storage.ssd import InMemorySSD
from repro.storage.striped import (
    STRIPE_HEADER_SIZE,
    StripeManifest,
    StripedDevice,
    decode_stripe_manifest,
    encode_stripe_manifest,
)


def make_striped(members=3, member_capacity=64 * 1024, stripe=4096):
    devices = [
        InMemorySSD(member_capacity, name=f"m{i}") for i in range(members)
    ]
    return StripedDevice.create(devices, stripe_size=stripe), devices


class TestManifest:
    def test_roundtrip(self):
        manifest = StripeManifest(
            member_index=2, member_count=4, stripe_size=8192,
            usable_per_member=65536,
        )
        assert decode_stripe_manifest(
            encode_stripe_manifest(manifest), "dev"
        ) == manifest

    def test_truncated_names_device(self):
        with pytest.raises(CorruptCheckpointError, match="dev-x.*truncated"):
            decode_stripe_manifest(b"\x00" * 8, "dev-x")

    def test_crc_mismatch_names_device(self):
        raw = bytearray(encode_stripe_manifest(
            StripeManifest(0, 2, 4096, 8192)
        ))
        raw[9] ^= 0xFF
        with pytest.raises(CorruptCheckpointError, match="CRC.*dev-y"):
            decode_stripe_manifest(bytes(raw), "dev-y")

    def test_bad_magic_names_device(self):
        raw = encode_stripe_manifest(StripeManifest(0, 2, 4096, 8192))
        body = b"NOTMAGIC" + raw[8:-4]
        import zlib
        import struct
        raw = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CorruptCheckpointError, match="dev-z"):
            decode_stripe_manifest(raw, "dev-z")


class TestMapping:
    def test_capacity_is_members_times_usable(self):
        striped, devices = make_striped(members=3, member_capacity=64 * 1024)
        usable = ((64 * 1024 - STRIPE_HEADER_SIZE) // 4096) * 4096
        assert striped.capacity == 3 * usable
        striped.close()

    def test_round_robin_chunk_placement(self):
        striped, devices = make_striped(members=2, stripe=4096)
        striped.write(0, b"A" * 4096 + b"B" * 4096 + b"C" * 4096)
        # chunk 0 -> member 0 row 0, chunk 1 -> member 1 row 0,
        # chunk 2 -> member 0 row 1
        assert devices[0].read(STRIPE_HEADER_SIZE, 1) == b"A"
        assert devices[1].read(STRIPE_HEADER_SIZE, 1) == b"B"
        assert devices[0].read(STRIPE_HEADER_SIZE + 4096, 1) == b"C"
        striped.close()

    def test_unaligned_write_read_roundtrip(self):
        striped, _ = make_striped(members=3, stripe=4096)
        blob = bytes(range(256)) * 70  # 17920 bytes, crosses stripes
        striped.write(1234, blob)
        assert striped.read(1234, len(blob)) == blob
        striped.close()

    def test_preferred_align_is_stripe_size(self):
        striped, _ = make_striped(stripe=4096)
        assert striped.preferred_align == 4096
        striped.close()

    def test_member_too_small_rejected(self):
        tiny = InMemorySSD(STRIPE_HEADER_SIZE + 100, name="tiny")
        with pytest.raises(StorageError, match="tiny"):
            StripedDevice.create([tiny], stripe_size=4096)


class TestPersist:
    def test_one_fence_per_member_covering_the_range(self):
        striped, devices = make_striped(members=3, stripe=4096)
        striped.write(0, b"x" * (3 * 4096))
        before = [d.stats.persist_ops for d in devices]
        striped.persist(0, 3 * 4096)
        after = [d.stats.persist_ops for d in devices]
        assert [a - b for a, b in zip(after, before)] == [1, 1, 1]
        striped.close()

    def test_fence_only_touches_owning_members(self):
        striped, devices = make_striped(members=3, stripe=4096)
        striped.write(0, b"x" * 4096)
        before = [d.stats.persist_ops for d in devices]
        striped.persist(0, 4096)
        after = [d.stats.persist_ops for d in devices]
        assert [a - b for a, b in zip(after, before)] == [1, 0, 0]
        striped.close()

    @pytest.mark.parametrize(
        "members, stripe", [(1, 4096), (2, 7), (3, 4096), (4, 3)]
    )
    def test_member_spans_match_the_segment_walk(self, members, stripe):
        """Each member's fence span runs from the first to the last byte
        it owns in the range — computed per member, the same spans a
        walk over every stripe segment of the range gives."""
        striped, _ = make_striped(
            members=members, member_capacity=STRIPE_HEADER_SIZE + 50 * stripe,
            stripe=stripe,
        )
        rng = np.random.default_rng(members * stripe)
        for _ in range(200):
            offset = int(rng.integers(striped.capacity))
            length = int(rng.integers(striped.capacity - offset + 1))
            walked = {}
            for member, m_off, _, seg in striped._segments(offset, length):
                lo, hi = walked.get(member, (m_off, m_off + seg))
                walked[member] = (min(lo, m_off), max(hi, m_off + seg))
            assert striped._member_spans(offset, length) == walked
        striped.close()

    def test_unpersisted_stripe_lost_on_member_crash(self):
        striped, devices = make_striped(members=2, stripe=4096)
        striped.write(0, b"k" * 8192)
        striped.persist(0, 8192)
        striped.write(0, b"n" * 8192)  # not fenced
        for d in devices:
            d.crash()
            d.recover()
        assert striped.read(0, 8192) == b"k" * 8192
        striped.close()

    def test_one_covering_fence_fans_out_per_member(self):
        striped, devices = make_striped(members=2, stripe=4096)
        writer = ParallelWriter(striped, num_threads=2)
        before = [d.stats.persist_ops for d in devices]
        writer.persist(0, b"a" * 4096 + b"b" * 4096)
        after = [d.stats.persist_ops for d in devices]
        assert [a - b for a, b in zip(after, before)] == [1, 1]
        assert striped.read(0, 8192) == b"a" * 4096 + b"b" * 4096
        writer.close()
        striped.close()


class TestOpen:
    def test_reopen_roundtrip(self):
        striped, devices = make_striped(members=2)
        striped.write(100, b"durable")
        striped.persist(100, 7)
        reopened = StripedDevice.open(devices)
        assert reopened.read(100, 7) == b"durable"
        assert reopened.stripe_size == striped.stripe_size
        assert reopened.capacity == striped.capacity

    def test_reordered_members_typed_error_names_device(self):
        striped, devices = make_striped(members=2)
        with pytest.raises(CorruptCheckpointError, match="m1.*index 1"):
            StripedDevice.open([devices[1], devices[0]])

    def test_missing_member_typed_error(self):
        striped, devices = make_striped(members=3)
        with pytest.raises(CorruptCheckpointError, match="3-way"):
            StripedDevice.open(devices[:2])

    def test_dead_member_typed_error_names_device(self):
        striped, devices = make_striped(members=3)
        devices[1].crash()
        with pytest.raises(CorruptCheckpointError, match="m1.*unreadable"):
            StripedDevice.open(devices)

    def test_torn_manifest_typed_error(self):
        striped, devices = make_striped(members=2)
        raw = bytearray(devices[0].read(0, 32))
        raw[12] ^= 0xFF
        devices[0].write(0, bytes(raw))
        devices[0].persist(0, 32)
        with pytest.raises(CorruptCheckpointError, match="m0"):
            StripedDevice.open(devices)

    def test_geometry_disagreement_typed_error(self):
        striped, devices = make_striped(members=2, stripe=4096)
        other = encode_stripe_manifest(StripeManifest(
            member_index=1, member_count=2, stripe_size=8192,
            usable_per_member=8192,
        ))
        devices[1].write(0, other)
        devices[1].persist(0, len(other))
        with pytest.raises(CorruptCheckpointError, match="disagrees"):
            StripedDevice.open(devices)


class TestEngineOnStripe:
    def _engine(self, striped, slots=3):
        layout = DeviceLayout.format(
            striped, num_slots=slots, slot_size=20 * 4096
        )
        return layout, CheckpointEngine(layout, writer_threads=2)

    def test_checkpoint_recovers_bit_identically(self):
        striped, devices = make_striped(members=3, member_capacity=256 * 1024)
        layout, engine = self._engine(striped)
        payload = bytes(os.urandom(50_000))
        engine.checkpoint(payload, step=1)
        engine.close()
        reopened = StripedDevice.open(devices)
        recovered = recover(DeviceLayout.open(reopened))
        assert recovered.payload == payload
        assert recovered.meta.step == 1

    def test_recover_over_reopened_stripe_set(self):
        striped, devices = make_striped(members=2, member_capacity=256 * 1024)
        layout, engine = self._engine(striped)
        payload = bytes(os.urandom(30_000))
        engine.checkpoint(payload, step=3)
        engine.close()
        recovered = recover(DeviceLayout.open(StripedDevice.open(devices)))
        assert recovered.payload == payload
        assert recovered.meta.step == 3

    def test_dead_member_is_typed_at_open_and_mid_read(self):
        striped, devices = make_striped(members=2, member_capacity=256 * 1024)
        layout, engine = self._engine(striped)
        engine.checkpoint(b"z" * 10_000, step=1)
        engine.close()
        reopened = DeviceLayout.open(StripedDevice.open(devices))
        devices[0].crash()
        # Degraded set, ONE failure mode: dies mid-recovery ...
        with pytest.raises(CorruptCheckpointError, match="member m0"):
            recover(reopened)
        # ... or is already dead when the set is opened.
        with pytest.raises(CorruptCheckpointError, match="m0.*unreadable"):
            StripedDevice.open(devices)
        # Writes and fences keep the power-loss error the sweep keys on.
        with pytest.raises(CrashedDeviceError):
            striped.write(0, b"x")

    def test_layout_rounds_slot_size_to_stripe(self):
        striped, _ = make_striped(members=2, member_capacity=256 * 1024,
                                  stripe=4096)
        layout = DeviceLayout.format(striped, num_slots=2, slot_size=5000)
        assert layout.geometry.slot_size % 4096 == 0
