"""On-device region layout: superblock, commit record, N+1 slots.

PCcheck dedicates ``(N + 1) * m`` bytes of persistent storage to hold up
to ``N`` concurrent checkpoints plus the guaranteed-valid latest one
(Table 1).  This module carves a :class:`~repro.storage.device.PersistentDevice`
into that layout::

    +------------------+ 0
    | superblock       |  identifies the region, pins geometry
    +------------------+ SUPERBLOCK_SIZE
    | commit record    |  CHECK_ADDR: newest committed checkpoint
    +------------------+ SUPERBLOCK_SIZE + RECORD_SIZE (page aligned)
    | slot 0 header    |  counter, length and CRC of slot 0's payload
    | slot 0 payload   |
    +------------------+
    | slot 1 ...       |
    +------------------+

The superblock stores the geometry (slot count and size) with a CRC so a
reopened device is validated before recovery trusts any record on it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional

from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    decode_commit_record,
    decode_slot_header,
)
from repro.errors import LayoutError
from repro.storage.device import PersistentDevice

#: Reserved space for the superblock.
SUPERBLOCK_SIZE: int = 4096
#: Alignment of the slot region (keeps payloads page-aligned).
SLOT_ALIGN: int = 4096

_SB_MAGIC = b"PCCHKSB1"
# body: magic(8s) version(I) num_slots(I) slot_size(Q) header_size(I), then
# crc(I).  header_size is recorded so payload offsets survive a reopen by
# a device with a different (or no) alignment hint.
_SB_STRUCT = struct.Struct("<8sIIQI")
_SB_VERSION = 2


def header_size_for_align(align: int) -> int:
    """On-device slot-header size for a device alignment hint.

    The slot header is :data:`RECORD_SIZE` bytes of content, but on a
    device with sector granularity the *payload* must start on a sector
    boundary or every payload write lands on the buffered fallback
    instead of O_DIRECT.  Pad the header to the alignment, capped at
    :data:`SLOT_ALIGN` — a page keeps any sane sector size aligned, and
    huge stripe sizes (megabytes) must not inflate every slot by a
    stripe.
    """
    if align <= 1:
        return RECORD_SIZE
    a = min(align, SLOT_ALIGN)
    return -(-RECORD_SIZE // a) * a


@dataclass(frozen=True)
class Geometry:
    """Physical layout parameters of a formatted checkpoint region."""

    num_slots: int
    slot_size: int
    #: On-device bytes reserved per slot for the header.  RECORD_SIZE on
    #: align-1 devices; padded to the sector size on aligned devices so
    #: payload offsets stay sector-aligned (ROADMAP item 3).
    header_size: int = RECORD_SIZE

    @classmethod
    def aligned(cls, num_slots: int, slot_size: int, align: int) -> "Geometry":
        """The geometry :meth:`DeviceLayout.format` pins for ``num_slots``
        slots of ``slot_size`` (``RECORD_SIZE`` + payload) on a device
        whose ``preferred_align`` is ``align``.

        Devices with sector/stripe granularity want slots to span a
        whole number of sectors/stripes AND payloads to start on a
        sector boundary (else O_DIRECT engines fall back to buffered
        I/O for every payload write): the header is padded to the
        alignment and the slot size rounded up.  The ONE place that
        rule lives — whoever sizes a device for a region calls this.
        """
        header = header_size_for_align(align)
        if align > 1:
            slot_size = slot_size - RECORD_SIZE + header
            slot_size = -(-slot_size // align) * align
        return cls(num_slots=num_slots, slot_size=slot_size, header_size=header)

    @property
    def payload_capacity(self) -> int:
        """Largest checkpoint payload a slot can hold."""
        return self.slot_size - self.header_size

    @property
    def data_offset(self) -> int:
        """Byte offset where slot 0 begins."""
        base = SUPERBLOCK_SIZE + RECORD_SIZE
        return ((base + SLOT_ALIGN - 1) // SLOT_ALIGN) * SLOT_ALIGN

    @property
    def total_size(self) -> int:
        """Device capacity required by this geometry."""
        return self.data_offset + self.num_slots * self.slot_size


class DeviceLayout:
    """A formatted checkpoint region on a persistent device.

    Create with :meth:`format` (initialises a blank region) or
    :meth:`open` (validates an existing one, e.g. after a crash).
    """

    def __init__(self, device: PersistentDevice, geometry: Geometry) -> None:
        self._device = device
        self._geometry = geometry

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def format(
        cls, device: PersistentDevice, num_slots: int, slot_size: int
    ) -> "DeviceLayout":
        """Initialise ``device`` with ``num_slots`` slots of ``slot_size``.

        ``num_slots`` must be at least 2 — the paper's N concurrent
        checkpoints plus the always-valid one require N+1 ≥ 2 slots.
        Zeroes the commit record and every slot header so stale data from
        a previous use can never validate.
        """
        if num_slots < 2:
            raise LayoutError(
                f"need at least 2 slots (N>=1 concurrent + 1 valid), got {num_slots}"
            )
        if slot_size <= RECORD_SIZE:
            raise LayoutError(
                f"slot size {slot_size} leaves no room for payload "
                f"(header is {RECORD_SIZE} bytes)"
            )
        # Rounded for the device's alignment before the geometry is
        # pinned in the superblock, so a reopen (whatever device wraps
        # the bytes then) sees the same geometry it was formatted with.
        geometry = Geometry.aligned(num_slots, slot_size, device.preferred_align)
        if geometry.total_size > device.capacity:
            raise LayoutError(
                f"geometry needs {geometry.total_size} bytes but device "
                f"{device.name} has {device.capacity}"
            )
        layout = cls(device, geometry)
        body = _SB_STRUCT.pack(
            _SB_MAGIC, _SB_VERSION, num_slots,
            geometry.slot_size, geometry.header_size,
        )
        superblock = body + struct.pack("<I", zlib.crc32(body))
        device.write(0, superblock)
        device.write(layout.commit_offset, bytes(RECORD_SIZE))
        for slot in range(num_slots):
            device.write(layout.slot_offset(slot), bytes(RECORD_SIZE))
        device.persist(0, geometry.total_size)
        return layout

    @classmethod
    def open(cls, device: PersistentDevice) -> "DeviceLayout":
        """Attach to an already formatted device, validating the superblock.

        The version is checked from the fixed-offset prefix before the
        CRC, so a region written by another layout version is refused by
        name rather than as a checksum mismatch.
        """
        prefix = device.read(0, 12)  # magic(8) + version(4)
        magic, version = struct.unpack("<8sI", prefix)
        if magic != _SB_MAGIC:
            raise LayoutError(f"{device.name} is not a PCcheck region")
        if version != _SB_VERSION:
            raise LayoutError(f"unsupported layout version {version}")
        raw = device.read(0, _SB_STRUCT.size + 4)
        body, (crc,) = raw[: _SB_STRUCT.size], struct.unpack(
            "<I", raw[_SB_STRUCT.size :]
        )
        if zlib.crc32(body) != crc:
            raise LayoutError(f"superblock CRC mismatch on {device.name}")
        _, _, num_slots, slot_size, header = _SB_STRUCT.unpack(body)
        if not RECORD_SIZE <= header < slot_size:
            raise LayoutError(
                f"superblock on {device.name} has invalid header size "
                f"{header} for slot size {slot_size}"
            )
        geometry = Geometry(
            num_slots=num_slots, slot_size=slot_size, header_size=header
        )
        if geometry.total_size > device.capacity:
            raise LayoutError(
                f"superblock on {device.name} describes {geometry.total_size} "
                f"bytes but device has only {device.capacity}"
            )
        return cls(device, geometry)

    # ------------------------------------------------------------------
    # geometry accessors

    @property
    def device(self) -> PersistentDevice:
        """The underlying persistent device."""
        return self._device

    @property
    def geometry(self) -> Geometry:
        """The region's physical layout."""
        return self._geometry

    @property
    def num_slots(self) -> int:
        """Number of checkpoint slots (N + 1)."""
        return self._geometry.num_slots

    @property
    def payload_capacity(self) -> int:
        """Largest payload one slot can hold."""
        return self._geometry.payload_capacity

    @property
    def commit_offset(self) -> int:
        """Device offset of the CHECK_ADDR commit record."""
        return SUPERBLOCK_SIZE

    def slot_offset(self, slot: int) -> int:
        """Device offset of ``slot``'s header."""
        self._check_slot(slot)
        return self._geometry.data_offset + slot * self._geometry.slot_size

    def payload_offset(self, slot: int) -> int:
        """Device offset where ``slot``'s payload begins.

        ``header_size`` (not ``RECORD_SIZE``) past the slot header: on
        aligned devices the header is padded so payloads start on a
        sector boundary and O_DIRECT engines avoid the buffered fallback.
        """
        return self.slot_offset(slot) + self._geometry.header_size

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self._geometry.num_slots:
            raise LayoutError(
                f"slot {slot} out of range [0, {self._geometry.num_slots})"
            )

    # ------------------------------------------------------------------
    # record I/O

    def read_slot_header(self, slot: int) -> Optional[CheckMeta]:
        """The slot's header, or ``None`` when blank/torn."""
        raw = self._device.read(self.slot_offset(slot), RECORD_SIZE)
        return decode_slot_header(raw)

    def read_all_slot_headers(self) -> List[Optional[CheckMeta]]:
        """Headers of every slot, index-aligned."""
        return [self.read_slot_header(slot) for slot in range(self.num_slots)]

    def highest_counter(self) -> int:
        """The largest counter any decodable record on the region carries
        — the commit record or a slot header, whether or not its
        checkpoint validates; 0 on a fresh region.

        An engine resumes its counter past this, so a checkpoint whose
        header (or record) reached the media without the rest of its
        commit never shares its counter with a later one.
        """
        raw = self._device.read(self.commit_offset, RECORD_SIZE)
        records = [decode_commit_record(raw), *self.read_all_slot_headers()]
        return max((r.counter for r in records if r is not None), default=0)

    def read_payload(self, meta: CheckMeta) -> bytes:
        """The payload bytes a validated header describes."""
        return self._device.read(self.payload_offset(meta.slot), meta.payload_len)
