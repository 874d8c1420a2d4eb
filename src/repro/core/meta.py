"""Checkpoint metadata records and their on-device encoding.

The algorithm of §4.1 manipulates three kinds of metadata:

* :class:`CheckMeta` — the paper's ``check_meta``: the checkpoint's global
  counter plus the location of its data (here, a slot index and payload
  length).  One lives in memory per in-flight checkpoint; the committed
  one is also encoded into the device's *commit record* (``CHECK_ADDR``).
* Slot headers — one per storage slot, carrying the payload's length and
  CRC, so that a header with a matching CRC proves the payload underneath
  it is complete.  This is the on-media form of the paper's "persist the
  data and the checkpoint that points to this data before CHECK_ADDR is
  updated" requirement: on PMEM the header is persisted after the
  payload, on a file region one fence covers both and the CRC tells a
  torn payload from a whole one.
* The commit record — a single 64-byte CRC-protected record at a fixed
  offset; updating it is the durable analogue of the CAS on CHECK_ADDR.

All records carry a magic number and a CRC32 so that recovery can detect
torn or partial writes: a record that fails validation is treated as
absent, never trusted.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import struct
import zlib
from dataclasses import dataclass
from typing import Optional


from repro.errors import CorruptCheckpointError
from repro.storage.device import buffer_address

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


def _load_libdeflate_crc32():
    """libdeflate's ``crc32(crc, buf, len)``, or ``None`` when the shared
    library is not installed."""
    name = ctypes.util.find_library("deflate")
    if name is None:
        return None
    try:
        fn = ctypes.CDLL(name).libdeflate_crc32
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    fn.restype = ctypes.c_uint32
    return fn


_LIBDEFLATE_CRC32 = _load_libdeflate_crc32()


def _libdeflate_crc(data, crc: int = 0) -> int:
    # The view pins the buffer for the whole call; the ctypes call drops
    # the GIL, as zlib.crc32 does.
    view = memoryview(data)
    if not view.c_contiguous:
        raise BufferError("payload_crc needs a C-contiguous buffer")
    if not view.nbytes:
        return crc
    return _LIBDEFLATE_CRC32(crc, buffer_address(view), view.nbytes)


#: The payload CRC backend, chosen once at import: ``"libdeflate"`` (the
#: same CRC-32 as zlib, several times faster) or ``"zlib"`` when that
#: library cannot be loaded.
PAYLOAD_CRC_IMPL: str = "zlib" if _LIBDEFLATE_CRC32 is None else "libdeflate"
_crc32 = zlib.crc32 if _LIBDEFLATE_CRC32 is None else _libdeflate_crc


def payload_crc(data, crc: int = 0) -> int:
    """CRC32 of a checkpoint payload (any C-contiguous buffer), continuing
    the running ``crc`` — bit-identical to ``zlib.crc32(data, crc)``.

    Every payload-sized checksum goes through here; fixed-size records
    stay on ``zlib.crc32``, whose call costs less than this one's on 64
    bytes.  A payload CRC'd in chunks is reassembled with
    :func:`crc32_combine`."""
    return _crc32(data, crc)


# CRC32 combination, zlib's crc32_combine: appending ``len2`` bytes
# multiplies crc1 by x^(8·len2) modulo the CRC polynomial (reflected bit
# order, so x^0 is bit 31), then adds crc2.
_CRC_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """a·b modulo the CRC polynomial."""
    m = 1 << 31
    p = 0
    while a:
        if a & m:
            p ^= b
            a ^= m
        m >>= 1
        b = (b >> 1) ^ _CRC_POLY if b & 1 else b >> 1
    return p


def _x2n_table() -> tuple:
    table = [1 << 30]  # x^1
    for _ in range(31):
        table.append(_multmodp(table[-1], table[-1]))
    return tuple(table)


#: ``_X2N[k]`` = x^(2^k) mod p; x's order divides 2^32 − 1, so k wraps at 32.
_X2N = _x2n_table()


@functools.lru_cache(maxsize=64)
def _crc_shift(len2: int) -> int:
    """x^(8·len2) mod p: the operator that moves a CRC past ``len2``
    zero bytes.  Memoised — a chunked read repeats one or two lengths."""
    p = 1 << 31  # x^0
    k = 3  # one byte is x^8 = x^(2^3)
    while len2:
        if len2 & 1:
            p = _multmodp(_X2N[k & 31], p)
        len2 >>= 1
        k += 1
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``zlib.crc32(a + b)`` from ``crc1 = crc32(a)``, ``crc2 = crc32(b)``
    and ``len2 = len(b)`` — without touching a byte of either."""
    if len2 < 0:
        raise ValueError(f"negative length {len2}")
    return _multmodp(_crc_shift(len2), crc1) ^ crc2
