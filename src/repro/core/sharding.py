"""Sharded checkpoints for data-parallel replicas (§3.1).

"When a combination of data and pipeline parallelism is used, the
checkpoint state of each pipeline stage is partitioned among the data
parallel replicas of this stage, reducing the overall checkpointing
overhead."  Each replica holds the *same* state, so any replica can
persist any shard — splitting the state K ways makes every replica write
only m/K bytes.

Shards carry a small self-describing header (index, count, total length,
offset, and a digest of the full state).  The headers of a shard set are
its whole index: :func:`reassemble` checks them before stitching the
state back together, and :func:`reshard_shards` re-partitions an
N-writer set onto M readers (elastic recovery) from them alone, without
consulting the world that wrote it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.meta import payload_crc
from repro.errors import ConfigError, CorruptCheckpointError

_SHARD_MAGIC = b"PCSHARD1"
# magic(8s) index(I) count(I) total_len(Q) offset(Q) state_crc(I)
_SHARD_HEADER = struct.Struct("<8sIIQQI")


def _even_split(total_len: int, count: int) -> List[Tuple[int, int]]:
    """``(offset, length)`` of ``count`` contiguous near-equal pieces."""
    if count < 1:
        raise ConfigError(f"need at least one shard, got {count}")
    base, extra = divmod(total_len, count)
    ranges: List[Tuple[int, int]] = []
    offset = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        ranges.append((offset, size))
        offset += size
    return ranges


def shard_payload(state: bytes, num_shards: int) -> List[bytes]:
    """Split ``state`` into ``num_shards`` self-describing shards."""
    ranges = _even_split(len(state), num_shards)
    crc = payload_crc(state)
    return [
        _SHARD_HEADER.pack(
            _SHARD_MAGIC, index, num_shards, len(state), offset, crc
        ) + state[offset : offset + size]
        for index, (offset, size) in enumerate(ranges)
    ]


@dataclass(frozen=True)
class ShardInfo:
    """Decoded per-shard header: where the piece lives in the state."""

    index: int
    count: int
    total_len: int
    offset: int
    state_crc: int


def decode_shard(shard) -> Tuple[ShardInfo, memoryview]:
    """Split a self-describing shard into its header and payload view.

    Accepts any bytes-like object; the returned payload is a zero-copy
    ``memoryview`` into ``shard``.
    """
    view = memoryview(shard).cast("B")
    if len(view) < _SHARD_HEADER.size:
        raise CorruptCheckpointError("truncated shard header")
    magic, index, count, total_len, offset, crc = _SHARD_HEADER.unpack(
        view[: _SHARD_HEADER.size]
    )
    if magic != _SHARD_MAGIC:
        raise CorruptCheckpointError("not a PCcheck shard")
    return ShardInfo(index, count, total_len, offset, crc), view[_SHARD_HEADER.size:]


def is_shard(payload) -> bool:
    """True when ``payload`` starts with a shard header's magic."""
    view = memoryview(payload).cast("B")
    return bytes(view[: len(_SHARD_MAGIC)]) == _SHARD_MAGIC


def _shard_set(shards: Sequence) -> List[Tuple[ShardInfo, memoryview]]:
    """Decode a shard set and order it by offset.

    Raises :class:`~repro.errors.CorruptCheckpointError` unless the set
    is one whole state version: every shard names the same count, total
    length and digest, the indices are ``0..count-1``, and the pieces
    tile ``[0, total_len)`` with no gap and no overlap.
    """
    if not shards:
        raise CorruptCheckpointError("no shards in the set")
    decoded = sorted(map(decode_shard, shards), key=lambda pair: pair[0].offset)
    first = decoded[0][0]
    version = (first.count, first.total_len, first.state_crc)
    if len(decoded) != first.count:
        raise CorruptCheckpointError(
            f"expected {first.count} shards, got {len(decoded)}"
        )
    if any((i.count, i.total_len, i.state_crc) != version for i, _ in decoded):
        raise CorruptCheckpointError("shards from different state versions")
    indices = sorted(info.index for info, _ in decoded)
    if indices != list(range(first.count)):
        raise CorruptCheckpointError(
            f"shard indices {indices} do not cover 0..{first.count - 1}"
        )
    cursor = 0
    for info, piece in decoded:
        if info.offset < cursor:
            raise CorruptCheckpointError(
                f"shards overlap at byte {info.offset} "
                f"(the previous one runs to {cursor})"
            )
        if info.offset > cursor:
            raise CorruptCheckpointError(
                f"shards leave bytes {cursor}..{info.offset} uncovered"
            )
        cursor += len(piece)
    if cursor != first.total_len:
        raise CorruptCheckpointError(
            f"shards cover {cursor} of {first.total_len} bytes"
        )
    return decoded


def reassemble(shards: Sequence[bytes]) -> bytes:
    """Stitch shards back into the full state, verifying consistency.

    Shards may arrive in any order; they must form one whole state
    version (see :func:`_shard_set`), and the stitched bytes must match
    the digest.
    """
    decoded = _shard_set(shards)
    state = b"".join(piece for _, piece in decoded)
    if payload_crc(state) != decoded[0][0].state_crc:
        raise CorruptCheckpointError("reassembled state fails its digest")
    return state


def reshard_shards(shards: Sequence, target_world: int) -> List[memoryview]:
    """Re-partition a shard set onto ``target_world`` reader ranks.

    The inputs are shards as :func:`shard_payload` writes them, in any
    order.  Output ``i`` is reader rank ``i``'s shard of the even split
    :func:`shard_payload` would make for the new world, carrying the
    *same* state digest, so a later :func:`reassemble` (or a further
    reshard) treats it like a freshly written one.  Each output is a
    read-only view of one buffer: the header, then every overlapping
    writer piece copied once into place.
    """
    decoded = _shard_set(shards)
    first = decoded[0][0]
    out: List[memoryview] = []
    for rank, (start, length) in enumerate(
        _even_split(first.total_len, target_world)
    ):
        shard = bytearray(_SHARD_HEADER.size + length)
        _SHARD_HEADER.pack_into(
            shard, 0, _SHARD_MAGIC, rank, target_world, first.total_len,
            start, first.state_crc,
        )
        body = memoryview(shard)[_SHARD_HEADER.size:]
        for info, piece in decoded:
            lo = max(start, info.offset)
            hi = min(start + length, info.offset + len(piece))
            if lo < hi:
                body[lo - start : hi - start] = (
                    piece[lo - info.offset : hi - info.offset]
                )
        out.append(memoryview(shard).toreadonly())
    return out


def shard_overhead_bytes(num_shards: int) -> int:
    """Header bytes the sharding adds in total."""
    return num_shards * _SHARD_HEADER.size
