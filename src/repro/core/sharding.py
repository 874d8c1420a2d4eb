"""Sharded checkpoints for data-parallel replicas (§3.1).

"When a combination of data and pipeline parallelism is used, the
checkpoint state of each pipeline stage is partitioned among the data
parallel replicas of this stage, reducing the overall checkpointing
overhead."  Each replica holds the *same* state, so any replica can
persist any shard — splitting the state K ways makes every replica write
only m/K bytes.

Shards carry a small self-describing header (index, count, total length,
and a digest of the full state) so reassembly can verify it is stitching
shards of the *same* state version together.

On top of the per-shard headers, a checkpoint can carry a **global
shard index** — :class:`ShardManifest`, a list of
``(tensor, byte-range, writer-rank)`` entries covering the full state —
so that recovery on a *different* world size can re-partition an
N-writer checkpoint onto M readers (see :mod:`repro.core.reshard`)
without consulting the world that wrote it.  The manifest is
self-describing and CRC-protected; it can be rebuilt from the shard
headers themselves (:func:`manifest_from_shards`) when only the shards
survived.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.meta import payload_crc
from repro.errors import ConfigError, CorruptCheckpointError

_SHARD_MAGIC = b"PCSHARD1"
# magic(8s) index(I) count(I) total_len(Q) offset(Q) state_crc(I)
_SHARD_HEADER = struct.Struct("<8sIIQQI")

_MANIFEST_MAGIC = b"PCMANIF1"
# magic(8s) entry_count(I) total_len(Q) state_crc(I)
_MANIFEST_HEADER = struct.Struct("<8sIQI")
# writer_rank(I) start(Q) length(Q) tensor_name_len(H)
_MANIFEST_ENTRY = struct.Struct("<IQQH")
_MANIFEST_CRC = struct.Struct("<I")


def shard_payload(state: bytes, num_shards: int) -> List[bytes]:
    """Split ``state`` into ``num_shards`` self-describing shards."""
    if num_shards < 1:
        raise ConfigError(f"need at least one shard, got {num_shards}")
    crc = payload_crc(state)
    base, extra = divmod(len(state), num_shards)
    shards: List[bytes] = []
    offset = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        piece = state[offset : offset + size]
        header = _SHARD_HEADER.pack(
            _SHARD_MAGIC, index, num_shards, len(state), offset, crc
        )
        shards.append(header + piece)
        offset += size
    return shards


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


def _parse(shard: bytes):
    info, piece = decode_shard(shard)
    return (info.index, info.count, info.total_len, info.offset,
            info.state_crc, bytes(piece))


def reassemble(shards: Sequence[bytes]) -> bytes:
    """Stitch shards back into the full state, verifying consistency.

    Shards may arrive in any order; they must all describe the same
    state (same count, total length, and state digest), cover it exactly,
    and the reassembled bytes must match the digest.
    """
    if not shards:
        raise CorruptCheckpointError("no shards to reassemble")
    parsed = [_parse(shard) for shard in shards]
    _, count, total_len, _, crc, _ = parsed[0]
    if len(parsed) != count:
        raise CorruptCheckpointError(
            f"expected {count} shards, got {len(parsed)}"
        )
    for index, shard_count, shard_total, _, shard_crc, _ in parsed:
        if shard_count != count or shard_total != total_len or shard_crc != crc:
            raise CorruptCheckpointError("shards from different state versions")
    seen = {index for index, *_ in parsed}
    if seen != set(range(count)):
        raise CorruptCheckpointError(
            f"shard indices {sorted(seen)} do not cover 0..{count - 1}"
        )
    out = bytearray(total_len)
    covered = 0
    for index, _, _, offset, _, piece in parsed:
        if offset + len(piece) > total_len:
            raise CorruptCheckpointError("shard exceeds state bounds")
        out[offset : offset + len(piece)] = piece
        covered += len(piece)
    if covered != total_len:
        raise CorruptCheckpointError(
            f"shards cover {covered} of {total_len} bytes"
        )
    state = bytes(out)
    if payload_crc(state) != crc:
        raise CorruptCheckpointError("reassembled state fails its digest")
    return state


def encode_shard(
    index: int, count: int, total_len: int, offset: int, state_crc: int,
    piece,
) -> bytes:
    """Frame one piece of the state as a self-describing shard.

    The inverse of :func:`decode_shard`; ``piece`` may be any bytes-like
    object (a :class:`memoryview` stays zero-copy until the final join).
    """
    header = _SHARD_HEADER.pack(
        _SHARD_MAGIC, index, count, total_len, offset, state_crc
    )
    return header + bytes(piece)


def shard_overhead_bytes(num_shards: int) -> int:
    """Header bytes the sharding adds in total."""
    return num_shards * _SHARD_HEADER.size


# ----------------------------------------------------------------------
# the global shard index


@dataclass(frozen=True)
class ShardEntry:
    """One manifest row: a byte range of the state and who wrote it."""

    writer_rank: int
    start: int
    length: int
    #: Logical tensor the range belongs to ("" for a flat state blob).
    tensor: str = ""

    @property
    def stop(self) -> int:
        """Exclusive end of the range."""
        return self.start + self.length


@dataclass(frozen=True)
class ShardManifest:
    """Global index of a sharded checkpoint: who holds which bytes.

    Self-describing: ``total_len`` and ``state_crc`` identify the state
    version (matching the per-shard headers), and ``entries`` cover
    ``[0, total_len)`` exactly, ordered by ``start``.  The manifest is
    what lets recovery re-partition an N-writer checkpoint onto M
    readers without knowing anything about the world that wrote it.
    """

    total_len: int
    state_crc: int
    entries: Tuple[ShardEntry, ...]

    @property
    def num_writers(self) -> int:
        """Distinct writer ranks named by the manifest."""
        return len({entry.writer_rank for entry in self.entries})

    def validate(self) -> None:
        """Raise :class:`~repro.errors.CorruptCheckpointError` unless the
        entries cover the state exactly, in order, without overlap."""
        if self.total_len < 0:
            raise CorruptCheckpointError(
                f"manifest total length {self.total_len} is negative"
            )
        cursor = 0
        for entry in self.entries:
            if entry.length < 0 or entry.writer_rank < 0:
                raise CorruptCheckpointError(
                    f"manifest entry {entry} has a negative field"
                )
            if entry.start < cursor:
                raise CorruptCheckpointError(
                    f"manifest ranges overlap at byte {entry.start} "
                    f"(previous entry runs to {cursor})"
                )
            if entry.start > cursor:
                raise CorruptCheckpointError(
                    f"manifest leaves bytes {cursor}..{entry.start} uncovered"
                )
            cursor = entry.stop
        if cursor != self.total_len:
            raise CorruptCheckpointError(
                f"manifest covers {cursor} of {self.total_len} bytes"
            )


def build_manifest(
    state_len: int, state_crc: int, num_shards: int
) -> ShardManifest:
    """The manifest matching :func:`shard_payload`'s even split."""
    if num_shards < 1:
        raise ConfigError(f"need at least one shard, got {num_shards}")
    base, extra = divmod(state_len, num_shards)
    entries: List[ShardEntry] = []
    offset = 0
    for rank in range(num_shards):
        size = base + (1 if rank < extra else 0)
        entries.append(ShardEntry(writer_rank=rank, start=offset, length=size))
        offset += size
    return ShardManifest(
        total_len=state_len, state_crc=state_crc, entries=tuple(entries)
    )


def manifest_for_state(state: bytes, num_shards: int) -> ShardManifest:
    """Build the manifest :func:`shard_payload` implies for ``state``."""
    return build_manifest(len(state), payload_crc(state), num_shards)


def manifest_from_shards(shards: Sequence) -> ShardManifest:
    """Rebuild the global index from self-describing shards.

    The shards must all describe the same state version and cover it
    exactly — the same checks :func:`reassemble` performs — but no
    payload bytes are copied or digested here.
    """
    if not shards:
        raise CorruptCheckpointError("no shards to index")
    decoded = [decode_shard(shard) for shard in shards]
    first = decoded[0][0]
    if len(decoded) != first.count:
        raise CorruptCheckpointError(
            f"expected {first.count} shards, got {len(decoded)}"
        )
    entries: List[ShardEntry] = []
    for info, piece in decoded:
        if (info.count != first.count or info.total_len != first.total_len
                or info.state_crc != first.state_crc):
            raise CorruptCheckpointError("shards from different state versions")
        entries.append(
            ShardEntry(
                writer_rank=info.index, start=info.offset, length=len(piece)
            )
        )
    ranks = {entry.writer_rank for entry in entries}
    if ranks != set(range(first.count)):
        raise CorruptCheckpointError(
            f"shard indices {sorted(ranks)} do not cover 0..{first.count - 1}"
        )
    entries.sort(key=lambda entry: entry.start)
    manifest = ShardManifest(
        total_len=first.total_len,
        state_crc=first.state_crc,
        entries=tuple(entries),
    )
    manifest.validate()
    return manifest


def encode_manifest(manifest: ShardManifest) -> bytes:
    """Serialize a manifest to a CRC-protected, self-describing blob."""
    parts = [
        _MANIFEST_HEADER.pack(
            _MANIFEST_MAGIC, len(manifest.entries), manifest.total_len,
            manifest.state_crc,
        )
    ]
    for entry in manifest.entries:
        name = entry.tensor.encode("utf-8")
        parts.append(
            _MANIFEST_ENTRY.pack(
                entry.writer_rank, entry.start, entry.length, len(name)
            )
        )
        parts.append(name)
    body = b"".join(parts)
    return body + _MANIFEST_CRC.pack(zlib.crc32(body))


def decode_manifest(raw: bytes) -> ShardManifest:
    """Parse and validate an encoded manifest.

    Raises :class:`~repro.errors.CorruptCheckpointError` on truncation,
    a digest mismatch, overlapping or gapped ranges — a fuzzed manifest
    never silently yields a wrong re-partitioning plan.
    """
    if len(raw) < _MANIFEST_HEADER.size + _MANIFEST_CRC.size:
        raise CorruptCheckpointError("truncated manifest header")
    magic, count, total_len, state_crc = _MANIFEST_HEADER.unpack(
        raw[: _MANIFEST_HEADER.size]
    )
    if magic != _MANIFEST_MAGIC:
        raise CorruptCheckpointError("not a PCcheck shard manifest")
    body, (crc,) = raw[:-_MANIFEST_CRC.size], _MANIFEST_CRC.unpack(
        raw[-_MANIFEST_CRC.size:]
    )
    if zlib.crc32(body) != crc:
        raise CorruptCheckpointError("manifest fails its digest")
    entries: List[ShardEntry] = []
    cursor = _MANIFEST_HEADER.size
    for _ in range(count):
        if cursor + _MANIFEST_ENTRY.size > len(body):
            raise CorruptCheckpointError("truncated manifest entry")
        writer_rank, start, length, name_len = _MANIFEST_ENTRY.unpack(
            body[cursor : cursor + _MANIFEST_ENTRY.size]
        )
        cursor += _MANIFEST_ENTRY.size
        if cursor + name_len > len(body):
            raise CorruptCheckpointError("truncated manifest tensor name")
        tensor = body[cursor : cursor + name_len].decode("utf-8")
        cursor += name_len
        entries.append(
            ShardEntry(
                writer_rank=writer_rank, start=start, length=length,
                tensor=tensor,
            )
        )
    if cursor != len(body):
        raise CorruptCheckpointError(
            f"{len(body) - cursor} trailing bytes after the last "
            "manifest entry"
        )
    manifest = ShardManifest(
        total_len=total_len, state_crc=state_crc, entries=tuple(entries)
    )
    manifest.validate()
    return manifest
