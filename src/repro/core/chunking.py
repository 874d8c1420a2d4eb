"""Chunk planning for pipelined checkpoints (§3.1, Figure 7).

PCcheck can split a checkpoint into chunks so that persisting chunk ``i``
overlaps with snapshotting chunk ``i+1``, and DRAM staging buffers are
recycled as soon as their chunk is durable.  A :class:`ChunkPlan` is the
static description of that split: consecutive ``(offset, length)`` ranges
covering the payload, each at most the DRAM buffer size ``b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.storage.device import Buffer, as_view


@dataclass(frozen=True)
class ChunkPlan:
    """Consecutive chunk ranges covering a payload of ``total`` bytes."""

    total: int
    chunk_size: int

    def __post_init__(self) -> None:
        if self.total < 0:
            raise ConfigError(f"payload size must be >= 0, got {self.total}")
        if self.chunk_size <= 0:
            raise ConfigError(f"chunk size must be positive, got {self.chunk_size}")

    @property
    def num_chunks(self) -> int:
        """Number of chunks (at least 1 even for an empty payload)."""
        return max(1, math.ceil(self.total / self.chunk_size))

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        if self.total == 0:
            yield (0, 0)
            return
        offset = 0
        while offset < self.total:
            length = min(self.chunk_size, self.total - offset)
            yield (offset, length)
            offset += length

    def ranges(self) -> List[Tuple[int, int]]:
        """All chunk ranges as a list."""
        return list(self)


def aligned_chunk_size(chunk_size: int, align: int) -> int:
    """Round ``chunk_size`` up to a multiple of ``align``.

    Devices with sector or stripe granularity
    (:attr:`repro.storage.device.PersistentDevice.preferred_align` > 1)
    want chunk boundaries — and therefore persist offsets — on that
    grid; the service pool rounds its pipeline chunk size through this
    before building DRAM staging buffers.
    """
    if chunk_size <= 0:
        raise ConfigError(f"chunk size must be positive, got {chunk_size}")
    if align <= 1:
        return chunk_size
    return -(-chunk_size // align) * align


def plan_chunks(
    total: int, chunk_size: Optional[int], align: int = 1
) -> ChunkPlan:
    """Build a plan; ``chunk_size=None`` means a single whole-payload chunk
    (the non-pipelined variant of Figure 6).  ``align`` rounds the chunk
    size up so every interior chunk boundary lands on the device's
    preferred alignment."""
    if chunk_size is None:
        return ChunkPlan(total=total, chunk_size=max(total, 1))
    return ChunkPlan(
        total=total, chunk_size=aligned_chunk_size(chunk_size, align)
    )


def iter_chunk_views(
    plan: ChunkPlan, payload: Buffer
) -> Iterator[Tuple[int, memoryview]]:
    """Yield ``(offset, view)`` per chunk of ``payload`` — zero copies.

    Each view is an O(1) memoryview slice of the payload, suitable for
    feeding straight into ``ticket.write_chunk`` or a
    :meth:`~repro.core.writer.ParallelWriter.submit` piece list without
    ever materializing a per-chunk ``bytes`` object.
    """
    view = as_view(payload)
    if len(view) != plan.total:
        raise ConfigError(
            f"payload of {len(view)} bytes does not match plan total "
            f"{plan.total}"
        )
    for offset, length in plan:
        yield offset, view[offset : offset + length]
