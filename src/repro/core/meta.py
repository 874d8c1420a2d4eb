"""Checkpoint metadata records and their on-device encoding.

The algorithm of §4.1 manipulates three kinds of metadata:

* :class:`CheckMeta` — the paper's ``check_meta``: the checkpoint's global
  counter plus the location of its data (here, a slot index and payload
  length).  One lives in memory per in-flight checkpoint; the committed
  one is also encoded into the device's *commit record* (``CHECK_ADDR``).
* Slot headers — one per storage slot, written and persisted *after* the
  slot's payload so that a header with a matching CRC proves the payload
  underneath it is complete.  This is the on-media form of the paper's
  "persist the data and the checkpoint that points to this data before
  CHECK_ADDR is updated" ordering requirement.
* The commit record — a single 64-byte CRC-protected record at a fixed
  offset; updating it is the durable analogue of the CAS on CHECK_ADDR.

All records carry a magic number and a CRC32 so that recovery can detect
torn or partial writes: a record that fails validation is treated as
absent, never trusted.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import CorruptCheckpointError

#: Fixed size of every metadata record on the device.
RECORD_SIZE: int = 64

_SLOT_MAGIC = b"PCCHKSL1"
_COMMIT_MAGIC = b"PCCHKCR1"

# magic(8s) counter(Q) slot(I) payload_len(Q) payload_crc(I) step(Q) pad, crc(I)
_RECORD_STRUCT = struct.Struct("<8sQIQIQ20x")
_CRC_STRUCT = struct.Struct("<I")
assert _RECORD_STRUCT.size + _CRC_STRUCT.size == RECORD_SIZE


@dataclass(frozen=True)
class CheckMeta:
    """Metadata of one checkpoint: its order and where its data lives.

    ``counter`` is the value drawn from the global atomic counter (unique,
    totally ordered; 0 is reserved for "no checkpoint").  ``slot`` is the
    storage slot index holding the payload; ``payload_len`` its length in
    bytes and ``payload_crc`` the CRC32 of the payload for validation at
    recovery time.
    """

    counter: int
    slot: int
    payload_len: int
    payload_crc: int
    #: Training iteration the checkpoint captures.  Not used by the
    #: single-node protocol, but distributed recovery intersects steps
    #: across workers to find the newest globally consistent checkpoint.
    step: int = 0

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise CorruptCheckpointError(f"negative counter {self.counter}")
        if self.slot < 0:
            raise CorruptCheckpointError(f"negative slot {self.slot}")
        if self.payload_len < 0:
            raise CorruptCheckpointError(f"negative length {self.payload_len}")

    def is_newer_than(self, other: Optional["CheckMeta"]) -> bool:
        """Order by global counter; ``None`` means "no checkpoint"."""
        return other is None or self.counter > other.counter


def _encode(magic: bytes, meta: CheckMeta) -> bytes:
    body = _RECORD_STRUCT.pack(
        magic, meta.counter, meta.slot, meta.payload_len, meta.payload_crc, meta.step
    )
    return body + _CRC_STRUCT.pack(zlib.crc32(body))


def _decode(magic: bytes, raw: bytes) -> Optional[CheckMeta]:
    if len(raw) != RECORD_SIZE:
        return None
    body, (crc,) = raw[: _RECORD_STRUCT.size], _CRC_STRUCT.unpack(
        raw[_RECORD_STRUCT.size :]
    )
    if zlib.crc32(body) != crc:
        return None
    got_magic, counter, slot, payload_len, payload_crc, step = _RECORD_STRUCT.unpack(
        body
    )
    if got_magic != magic:
        return None
    return CheckMeta(
        counter=counter,
        slot=slot,
        payload_len=payload_len,
        payload_crc=payload_crc,
        step=step,
    )


def encode_slot_header(meta: CheckMeta) -> bytes:
    """Serialize a slot header (64 bytes, CRC-protected)."""
    return _encode(_SLOT_MAGIC, meta)


def decode_slot_header(raw: bytes) -> Optional[CheckMeta]:
    """Parse a slot header; ``None`` for anything torn, blank, or foreign."""
    return _decode(_SLOT_MAGIC, raw)


def encode_commit_record(meta: CheckMeta) -> bytes:
    """Serialize the CHECK_ADDR commit record (64 bytes, CRC-protected)."""
    return _encode(_COMMIT_MAGIC, meta)


def decode_commit_record(raw: bytes) -> Optional[CheckMeta]:
    """Parse the commit record; ``None`` when torn, blank, or foreign."""
    return _decode(_COMMIT_MAGIC, raw)


def payload_crc(payload: bytes, running: int = 0) -> int:
    """CRC32 used to validate checkpoint payloads at recovery.

    ``running`` continues a CRC over earlier chunks, so a payload can be
    validated piece by piece as it is read."""
    return zlib.crc32(payload, running)
