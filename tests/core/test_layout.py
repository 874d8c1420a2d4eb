"""Tests for the on-device region layout."""

import pytest

from repro.core.layout import SLOT_ALIGN, DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE, CheckMeta, encode_slot_header
from repro.errors import LayoutError
from repro.storage.ssd import InMemorySSD


def make_layout(num_slots=3, slot_size=1024, extra=0):
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    device = InMemorySSD(capacity=geometry.total_size + extra)
    return DeviceLayout.format(device, num_slots=num_slots, slot_size=slot_size)


class TestGeometry:
    def test_payload_capacity_excludes_header(self):
        geometry = Geometry(num_slots=2, slot_size=1000)
        assert geometry.payload_capacity == 1000 - RECORD_SIZE

    def test_data_offset_is_aligned(self):
        geometry = Geometry(num_slots=2, slot_size=1000)
        assert geometry.data_offset % SLOT_ALIGN == 0

    def test_total_size_accounts_for_all_slots(self):
        geometry = Geometry(num_slots=4, slot_size=512)
        assert geometry.total_size == geometry.data_offset + 4 * 512


class TestFormat:
    def test_format_and_reopen(self):
        layout = make_layout()
        reopened = DeviceLayout.open(layout.device)
        assert reopened.num_slots == 3
        assert reopened.geometry == layout.geometry

    def test_format_requires_two_slots(self):
        device = InMemorySSD(capacity=1 << 20)
        with pytest.raises(LayoutError):
            DeviceLayout.format(device, num_slots=1, slot_size=1024)

    def test_format_requires_payload_room(self):
        device = InMemorySSD(capacity=1 << 20)
        with pytest.raises(LayoutError):
            DeviceLayout.format(device, num_slots=2, slot_size=RECORD_SIZE)

    def test_format_rejects_undersized_device(self):
        device = InMemorySSD(capacity=4096)
        with pytest.raises(LayoutError):
            DeviceLayout.format(device, num_slots=8, slot_size=1 << 20)

    def test_open_rejects_unformatted_device(self):
        device = InMemorySSD(capacity=1 << 20)
        with pytest.raises(LayoutError):
            DeviceLayout.open(device)

    def test_open_rejects_corrupted_superblock(self):
        layout = make_layout()
        raw = bytearray(layout.device.read(0, 16))
        raw[4] ^= 0xFF
        layout.device.write(0, bytes(raw))
        with pytest.raises(LayoutError):
            DeviceLayout.open(layout.device)

    def test_format_clears_stale_records(self):
        """Reformatting a device invalidates every previous record."""
        layout = make_layout()
        meta = CheckMeta(counter=9, slot=1, payload_len=10, payload_crc=0)
        layout.device.write(layout.slot_offset(1), encode_slot_header(meta))
        layout.device.persist_all()
        reformatted = DeviceLayout.format(
            layout.device, num_slots=3, slot_size=1024
        )
        assert reformatted.read_slot_header(1) is None

    def test_format_survives_crash(self):
        """A freshly formatted region is durable before any checkpoint."""
        layout = make_layout()
        layout.device.crash()
        layout.device.recover()
        reopened = DeviceLayout.open(layout.device)
        assert reopened.num_slots == 3


class TestOffsets:
    def test_slots_do_not_overlap(self):
        layout = make_layout(num_slots=4, slot_size=512)
        offsets = [layout.slot_offset(slot) for slot in range(4)]
        for first, second in zip(offsets, offsets[1:]):
            assert second - first == 512

    def test_payload_offset_skips_header(self):
        layout = make_layout()
        assert layout.payload_offset(0) == layout.slot_offset(0) + RECORD_SIZE

    def test_commit_record_precedes_slots(self):
        layout = make_layout()
        assert layout.commit_offset < layout.slot_offset(0)

    def test_out_of_range_slot_rejected(self):
        layout = make_layout(num_slots=3)
        with pytest.raises(LayoutError):
            layout.slot_offset(3)
        with pytest.raises(LayoutError):
            layout.slot_offset(-1)


class TestRecordIO:
    def test_blank_slot_header_reads_none(self):
        layout = make_layout()
        assert layout.read_slot_header(0) is None
        assert layout.read_all_slot_headers() == [None, None, None]

    def test_written_header_reads_back(self):
        layout = make_layout()
        meta = CheckMeta(counter=5, slot=1, payload_len=3, payload_crc=123, step=9)
        layout.device.write(layout.slot_offset(1), encode_slot_header(meta))
        assert layout.read_slot_header(1) == meta

    def test_read_payload_returns_slot_bytes(self):
        layout = make_layout()
        layout.device.write(layout.payload_offset(2), b"payload")
        meta = CheckMeta(counter=1, slot=2, payload_len=7, payload_crc=0)
        assert layout.read_payload(meta) == b"payload"


class _SectorAlignedSSD(InMemorySSD):
    """In-memory device advertising sector granularity."""

    @property
    def preferred_align(self):
        return 4096


class TestAlignedHeaders:
    """Satellite of ROADMAP item 3: on aligned devices the slot header is
    padded so payload offsets land on sector boundaries (O_DIRECT path)."""

    def test_header_size_for_align(self):
        from repro.core.layout import header_size_for_align

        assert header_size_for_align(1) == RECORD_SIZE
        assert header_size_for_align(0) == RECORD_SIZE
        assert header_size_for_align(512) == 512
        assert header_size_for_align(4096) == 4096
        # Huge stripe alignments are capped at a page.
        assert header_size_for_align(1 << 20) == SLOT_ALIGN

    def _aligned_layout(self, num_slots=3, slot_size=1024):
        device = _SectorAlignedSSD(capacity=1 << 20, name="aligned")
        return DeviceLayout.format(
            device, num_slots=num_slots, slot_size=slot_size
        )

    def test_payload_offsets_are_sector_aligned(self):
        layout = self._aligned_layout()
        for slot in range(layout.num_slots):
            assert layout.slot_offset(slot) % 4096 == 0
            assert layout.payload_offset(slot) % 4096 == 0

    def test_padding_preserves_requested_payload_capacity(self):
        requested = 1024
        layout = self._aligned_layout(slot_size=requested)
        assert layout.payload_capacity >= requested - RECORD_SIZE
        assert layout.geometry.header_size == 4096
        assert layout.geometry.slot_size % 4096 == 0

    def test_reopen_preserves_padded_geometry(self):
        layout = self._aligned_layout()
        # open() never consults the device's alignment hint: the v2
        # superblock carries header_size, so offsets cannot shift even
        # when a differently-hinted device wraps the same bytes later.
        reopened = DeviceLayout.open(layout.device)
        assert reopened.geometry == layout.geometry
        assert reopened.payload_offset(0) == layout.payload_offset(0)

    def test_unaligned_device_keeps_compact_header(self):
        layout = make_layout()
        assert layout.geometry.header_size == RECORD_SIZE


class TestSuperblockVersions:
    def test_v1_superblock_is_rejected(self):
        """A well-formed region from before the header_size field (v1:
        magic, version, num_slots, slot_size, CRC) is refused by version,
        not misread."""
        import struct
        import zlib

        from repro.core.layout import _SB_MAGIC

        geometry = Geometry(num_slots=2, slot_size=512)
        device = InMemorySSD(capacity=geometry.total_size)
        body = struct.pack("<8sIIQ", _SB_MAGIC, 1, 2, 512)
        device.write(0, body + struct.pack("<I", zlib.crc32(body)))
        device.persist(0, len(body) + 4)
        with pytest.raises(LayoutError, match="unsupported layout version 1"):
            DeviceLayout.open(device)

    def test_unknown_version_rejected(self):
        import struct
        import zlib

        from repro.core.layout import _SB_MAGIC, _SB_STRUCT

        device = InMemorySSD(capacity=1 << 16)
        body = _SB_STRUCT.pack(_SB_MAGIC, 99, 2, 512, RECORD_SIZE)
        device.write(0, body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(LayoutError, match="version"):
            DeviceLayout.open(device)

    def test_invalid_header_size_rejected(self):
        import struct
        import zlib

        from repro.core.layout import _SB_MAGIC, _SB_STRUCT, _SB_VERSION

        device = InMemorySSD(capacity=1 << 16)
        # header >= slot_size: no payload room, must be rejected.
        body = _SB_STRUCT.pack(_SB_MAGIC, _SB_VERSION, 2, 512, 512)
        device.write(0, body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(LayoutError, match="header size"):
            DeviceLayout.open(device)
