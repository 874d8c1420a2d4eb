"""Differential checkpointing — the Check-N-Run idea (§6), on PCcheck.

Check-N-Run (NSDI'22) observes that between consecutive checkpoints only
part of the training state changes, and checkpoints just the difference.
The paper lists this as *orthogonal* to PCcheck; this module composes the
two: full checkpoints ("anchors") and page-level deltas each flow through
their own concurrent checkpoint engine, so both inherit PCcheck's
non-blocking persistence and crash consistency.

Design
------
* The state is compared to the **last anchor** at ``page_size``
  granularity; changed pages become a delta payload tagged with the
  anchor's engine counter.
* Anchors are taken every ``anchor_every`` checkpoints, whenever the
  state size changes, or when the delta would exceed
  ``max_delta_fraction`` of a full checkpoint (at which point a delta
  saves nothing).
* Anchors and deltas live in **separate regions**: a delta is useless
  without its base, and giving anchors their own slots guarantees the
  base of any recoverable delta is never recycled underneath it.
* A delta is bound to its anchor by a **uniqueness token** — the
  anchor's engine counter *plus* its payload CRC.  The counter alone is
  ambiguous across restarts: after recovery the engine counter restarts
  from the recovered value, so a post-restart anchor can reuse the
  counter of a stale anchor still durable in the anchor region, and a
  counter-only match would let recovery apply a delta to the wrong
  base.  A counter match with a CRC mismatch is rejected as
  :class:`~repro.errors.CorruptCheckpointError`.
* Recovery loads the newest anchor, then the newest delta *that
  references it*; a delta chained to an older anchor is ignored (the
  anchor alone is a complete, newer-or-equal state).
* **Elastic restarts** compose with resharding
  (:mod:`repro.core.reshard`): a reshard rebinds anchors — each rank's
  partition boundary moved, so no previous delta base describes the new
  partition — and :meth:`DifferentialCheckpointer.mark_resharded` drops
  the base, forcing the next checkpoint to be a full anchor.  When the
  layout is *unchanged* across a restart,
  :meth:`DifferentialCheckpointer.adopt_anchor` rebinds the recovered
  anchor instead, so an elastic restart does not force a full rewrite.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.engine import CheckpointEngine
from repro.core.meta import payload_crc
from repro.core.recovery import try_recover
from repro.errors import ConfigError, CorruptCheckpointError
from repro.storage.device import Buffer, as_view

_DELTA_MAGIC = b"PCDELTA2"
# magic(8s) base_counter(Q) base_crc(I) total_len(Q) page_size(I) num_pages(I)
_DELTA_HEADER = struct.Struct("<8sQIQII")
_PAGE_HEADER = struct.Struct("<I")


@dataclass(frozen=True)
class Delta:
    """Changed pages of a state relative to a base.

    ``(base_counter, base_crc)`` is the anchor's uniqueness token: both
    must match the anchor a recovery wants to apply this delta to.
    """

    base_counter: int
    total_len: int
    page_size: int
    pages: Tuple[Tuple[int, bytes], ...]
    #: CRC32 of the full base state (the anchor's ``payload_crc``).
    base_crc: int = 0

    @property
    def nbytes(self) -> int:
        """Encoded size (headers + page payloads)."""
        return _DELTA_HEADER.size + sum(
            _PAGE_HEADER.size + len(data) for _, data in self.pages
        )


def diff_states(base: bytes, current: bytes, page_size: int,
                base_counter: int,
                base_crc: Optional[int] = None) -> Delta:
    """Page-level difference of two equal-length states.

    ``base_crc`` completes the anchor token; when ``None`` it is
    computed from ``base`` (callers that already hold the anchor's
    ``payload_crc`` pass it to skip the extra pass).
    """
    if page_size <= 0:
        raise ConfigError(f"page size must be positive, got {page_size}")
    if len(base) != len(current):
        raise ConfigError(
            f"differential checkpoint needs equal sizes, got "
            f"{len(base)} vs {len(current)}"
        )
    if base_crc is None:
        base_crc = payload_crc(base)
    pages: List[Tuple[int, bytes]] = []
    for index in range(0, len(current), page_size):
        base_page = base[index : index + page_size]
        current_page = current[index : index + page_size]
        if base_page != current_page:
            pages.append((index // page_size, current_page))
    return Delta(
        base_counter=base_counter,
        total_len=len(current),
        page_size=page_size,
        pages=tuple(pages),
        base_crc=base_crc,
    )


def apply_delta(base: Buffer, delta: Delta) -> bytes:
    """Reconstruct the current state from a base and its delta.

    ``base`` may be any buffer (a recovered anchor is a read-only view);
    the one copy is the mutable working state the pages are applied to.
    """
    if len(base) != delta.total_len:
        raise CorruptCheckpointError(
            f"delta expects a base of {delta.total_len} bytes, got {len(base)}"
        )
    out = bytearray(base)
    for page_index, data in delta.pages:
        start = page_index * delta.page_size
        if start + len(data) > len(out):
            raise CorruptCheckpointError("delta page outside state bounds")
        out[start : start + len(data)] = data
    return bytes(out)


def encode_delta(delta: Delta) -> bytes:
    """Serialize a delta to a checkpoint payload."""
    parts = [
        _DELTA_HEADER.pack(
            _DELTA_MAGIC, delta.base_counter, delta.base_crc,
            delta.total_len, delta.page_size, len(delta.pages),
        )
    ]
    for page_index, data in delta.pages:
        parts.append(_PAGE_HEADER.pack(page_index))
        parts.append(data)
    return b"".join(parts)


def decode_delta(raw: Buffer) -> Delta:
    """Parse a delta payload; raises on any structural problem.

    Pages are copied out of ``raw`` (any buffer) one by one — the whole
    payload is never duplicated first.
    """
    raw = as_view(raw)
    if len(raw) < _DELTA_HEADER.size:
        raise CorruptCheckpointError("truncated delta header")
    (magic, base_counter, base_crc, total_len, page_size,
     num_pages) = _DELTA_HEADER.unpack(raw[: _DELTA_HEADER.size])
    if magic != _DELTA_MAGIC:
        raise CorruptCheckpointError("not a PCcheck delta payload")
    pages: List[Tuple[int, bytes]] = []
    cursor = _DELTA_HEADER.size
    max_page = (total_len + page_size - 1) // page_size if page_size else 0
    for index in range(num_pages):
        if cursor + _PAGE_HEADER.size > len(raw):
            raise CorruptCheckpointError("truncated delta page header")
        (page_index,) = _PAGE_HEADER.unpack(
            raw[cursor : cursor + _PAGE_HEADER.size]
        )
        cursor += _PAGE_HEADER.size
        if page_index >= max_page:
            raise CorruptCheckpointError("delta page index out of range")
        start = page_index * page_size
        length = min(page_size, total_len - start)
        if cursor + length > len(raw):
            raise CorruptCheckpointError("truncated delta page data")
        pages.append((page_index, bytes(raw[cursor : cursor + length])))
        cursor += length
    return Delta(base_counter=base_counter, total_len=total_len,
                 page_size=page_size, pages=tuple(pages),
                 base_crc=base_crc)


@dataclass
class DifferentialStats:
    """Byte savings accounting."""

    full_checkpoints: int = 0
    delta_checkpoints: int = 0
    full_bytes: int = 0
    delta_bytes: int = 0

    @property
    def bytes_saved(self) -> int:
        """Bytes the deltas avoided writing vs. always-full."""
        if self.delta_checkpoints == 0 or self.full_checkpoints == 0:
            return 0
        mean_full = self.full_bytes / self.full_checkpoints
        return int(self.delta_checkpoints * mean_full - self.delta_bytes)


class DifferentialCheckpointer:
    """Anchors + deltas over two concurrent checkpoint engines."""

    def __init__(
        self,
        anchor_engine: CheckpointEngine,
        delta_engine: CheckpointEngine,
        page_size: int = 4096,
        anchor_every: int = 8,
        max_delta_fraction: float = 0.5,
    ) -> None:
        if page_size <= 0:
            raise ConfigError(f"page size must be positive, got {page_size}")
        if anchor_every < 1:
            raise ConfigError(f"anchor cadence must be >= 1, got {anchor_every}")
        if not 0.0 < max_delta_fraction <= 1.0:
            raise ConfigError(
                f"max delta fraction must be in (0, 1], got {max_delta_fraction}"
            )
        self._anchors = anchor_engine
        self._deltas = delta_engine
        self._page_size = page_size
        self._anchor_every = anchor_every
        self._max_fraction = max_delta_fraction
        self._since_anchor = 0
        self._base_state: Optional[bytes] = None
        self._base_counter: Optional[int] = None
        self._base_crc: Optional[int] = None
        self.stats = DifferentialStats()

    def checkpoint(self, state: bytes, step: int) -> str:
        """Persist ``state``; returns ``"full"`` or ``"delta"``."""
        needs_anchor = (
            self._base_state is None
            or self._since_anchor >= self._anchor_every - 1
            or len(state) != len(self._base_state)
        )
        if not needs_anchor:
            delta = diff_states(self._base_state, state, self._page_size,
                                self._base_counter,
                                base_crc=self._base_crc)
            if delta.nbytes <= self._max_fraction * len(state):
                payload = encode_delta(delta)
                self._deltas.checkpoint(payload, step=step)
                self._since_anchor += 1
                self.stats.delta_checkpoints += 1
                self.stats.delta_bytes += len(payload)
                return "delta"
        result = self._anchors.checkpoint(state, step=step)
        self._base_state = bytes(state)
        self._base_counter = result.counter
        self._base_crc = payload_crc(self._base_state)
        self._since_anchor = 0
        self.stats.full_checkpoints += 1
        self.stats.full_bytes += len(state)
        return "full"

    def mark_resharded(self) -> None:
        """A reshard rebound the anchors: invalidate the delta chain.

        After elastic recovery onto a different world
        (:func:`~repro.core.recovery.recover_consistent` with
        ``world_size``), every rank's partition boundary moved, so no
        prior anchor describes the new partition.  Deltas never cross a
        reshard boundary: the next :meth:`checkpoint` writes a full
        anchor, and the chain restarts from it.
        """
        self._base_state = None
        self._base_counter = None
        self._base_crc = None
        self._since_anchor = 0

    def adopt_anchor(self, state: bytes, counter: int,
                     crc: Optional[int] = None) -> None:
        """Rebind a recovered anchor as the delta base (layout unchanged).

        After an elastic restart whose reshard plan was pure
        pass-through — the world size and shard layout did not change —
        the recovered anchor is still a valid delta base.  Adopting it
        lets the first post-restart checkpoint be a delta instead of a
        full rewrite.  ``counter`` and ``crc`` are the recovered
        anchor's engine counter and ``payload_crc`` (``crc`` is
        computed from ``state`` when omitted); together they form the
        token post-restart deltas are stamped with.
        """
        if counter < 0:
            raise ConfigError(f"anchor counter must be >= 0, got {counter}")
        self._base_state = bytes(state)
        self._base_counter = counter
        self._base_crc = payload_crc(state) if crc is None else crc
        self._since_anchor = 0

    def recover(self) -> Optional[Tuple[int, Buffer]]:
        """Newest reconstructible state as ``(step, buffer)``, or None.

        The state is the recovered anchor's read-only view when no delta
        applies, else the patched copy.

        A delta is applied only when its full anchor token matches —
        base counter *and* base CRC.  A counter match with a CRC
        mismatch means the delta was stamped against a different state
        that happened to reuse the counter (engine counters restart
        from the recovered value, so a post-restart anchor can collide
        with a stale same-counter anchor): that is corruption, not
        staleness, and raises
        :class:`~repro.errors.CorruptCheckpointError`.
        """
        anchor = try_recover(self._anchors.layout)
        if anchor is None:
            return None
        delta_ckpt = try_recover(self._deltas.layout)
        if delta_ckpt is not None and delta_ckpt.meta.step > anchor.meta.step:
            try:
                delta = decode_delta(delta_ckpt.payload)
            except CorruptCheckpointError:
                delta = None
            if delta is not None and delta.base_counter == anchor.meta.counter:
                if delta.base_crc != anchor.meta.payload_crc:
                    raise CorruptCheckpointError(
                        f"delta for step {delta_ckpt.meta.step} references "
                        f"anchor counter {delta.base_counter} but its base "
                        f"token (crc {delta.base_crc:#010x}) does not match "
                        f"the anchor's payload crc "
                        f"{anchor.meta.payload_crc:#010x} — a stale "
                        f"same-counter anchor collided with the delta chain"
                    )
                return delta_ckpt.meta.step, apply_delta(anchor.payload, delta)
        return anchor.meta.step, anchor.payload
