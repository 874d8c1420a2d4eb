"""Recovery: find and load the newest valid checkpoint (§4.2).

``CHECK_ADDR`` (the commit record) points to the last consistent
checkpoint.  Recovery validates it — magic, record CRC, matching slot
header, payload CRC — and loads the payload.  If the crash tore the
commit record, recovery falls back to the slot headers, newest counter
first, and takes the first slot whose header and payload both validate.
That is sound because a header is persisted only *after* its payload is
durable (valid header + matching CRC ⇒ complete checkpoint), and a
recycled slot keeps its old header over bytes that no longer match it.

Every restore path goes through ONE loader, :func:`load_validated`: the
payload is read exactly once, chunk by chunk, straight into one
destination buffer (``readinto`` — no ``bytes`` per chunk, no join), the
reads queued on the :class:`~repro.core.writer.ParallelWriter` pool
while the calling thread folds finished chunks into a running CRC.  The
buffer comes back, read-only, only if that CRC matches — **the validated
bytes are the returned bytes** (docs/ALGORITHM.md §Recovery).  Chunk
locations come from a *persistent iterator* that logs every read, as in
the paper ("a persistent iterator, which logs data read locations").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.layout import DeviceLayout
from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    decode_commit_record,
    decode_slot_header,
    payload_crc,
)
from repro.core.writer import ParallelWriter
from repro.errors import (
    CorruptCheckpointError,
    CrashedDeviceError,
    LayoutError,
    NoCheckpointError,
    RemoteUnavailableError,
    StorageError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.storage.device import as_view
from repro.storage.striped import StripedDevice

#: Default read granularity of the persistent iterator.
DEFAULT_READ_CHUNK: int = 4 * 1024 * 1024

#: Pool threads reading chunks while the restoring thread CRCs — derived,
#: not a knob: past a few readers the one CRC thread is the limit.
READ_THREADS: int = max(1, min(os.cpu_count() or 1, 4))


@dataclass
class RecoveredCheckpoint:
    """A validated checkpoint ready to be restored into training state."""

    meta: CheckMeta
    #: Read-only buffer over exactly the bytes whose CRC admitted it.
    payload: memoryview
    #: Which mechanism located it: "commit-record" or "slot-scan".
    source: str = "commit-record"


def load_validated(
    layout: DeviceLayout,
    meta: CheckMeta,
    chunk_size: int = DEFAULT_READ_CHUNK,
) -> Optional[memoryview]:
    """Read ``meta``'s payload once; return it iff its CRC matches.

    ``None``: the bytes under the header are not the checkpoint it
    describes (torn, recycled, impossible length); the buffer is dropped.
    The destination is uninitialised (``np.empty``) — every byte is about
    to be overwritten, and zero-filling first costs a third of the read.
    """
    if meta.payload_len > layout.payload_capacity:
        return None
    dest = np.empty(meta.payload_len, dtype=np.uint8)
    view = memoryview(dest)
    base = layout.payload_offset(meta.slot)
    starts = range(0, meta.payload_len, chunk_size)
    crc = 0
    if len(starts) <= 1:
        if starts:  # an empty payload reads nothing
            layout.device.readinto(base, view)
        crc = payload_crc(view)
    else:
        # Leaving the block joins the pool, so no reader can still be
        # filling ``dest`` when an error (or a mismatch) drops it.
        with ParallelWriter(layout.device, READ_THREADS) as pool:
            reads = [
                (pool.submit_read(base + lo, view[lo : lo + chunk_size]), lo)
                for lo in starts
            ]
            for read, lo in reads:
                pool.reap(read)
                crc = payload_crc(view[lo : lo + chunk_size], crc)
    if crc != meta.payload_crc:
        return None
    dest.setflags(write=False)
    return memoryview(dest)


def commit_record_candidate(layout: DeviceLayout) -> Optional[CheckMeta]:
    """The commit record's checkpoint, if the record itself holds up
    (record CRC, slot in range, slot header with the same counter).  Its
    payload is NOT validated here — :func:`load_validated` does that."""
    raw = layout.device.read(layout.commit_offset, RECORD_SIZE)
    meta = decode_commit_record(raw)
    if meta is None or meta.slot >= layout.num_slots:
        return None
    header = layout.read_slot_header(meta.slot)
    if header is None or header.counter != meta.counter:
        return None
    return meta


def _candidates(
    layout: DeviceLayout, seen: List[object]
) -> Iterator[Tuple[CheckMeta, str]]:
    """Checkpoints worth loading, best first: the commit record's, then
    the other slot headers by descending counter (read lazily, once the
    record's was refused).  Every record decoded is appended to ``seen``."""
    committed = commit_record_candidate(layout)
    seen.append(committed)
    if committed is not None:
        yield committed, "commit-record"
    headers = layout.read_all_slot_headers()
    seen.append(headers)
    for header in sorted(
        (h for h in headers if h is not None and h != committed),
        key=lambda h: -h.counter,
    ):
        yield header, "slot-scan"


def find_committed(layout: DeviceLayout) -> Optional[CheckMeta]:
    """Metadata of the newest valid checkpoint, or ``None``: the single
    pass :func:`recover` makes, with the validated payload dropped."""
    found = try_recover(layout, max_attempts=1)
    return found.meta if found is not None else None


def recover(
    layout: DeviceLayout,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Load the newest valid checkpoint from a formatted region.

    One pass tries the commit record, then the slot headers by
    descending counter, and returns the first candidate
    :func:`load_validated` admits — each payload read once, returned as
    a read-only buffer over exactly the bytes its CRC was computed on.

    Under an online reader a slot can be recycled between reading its
    header and its payload; the CRC refuses it.  A pass that refused
    every candidate is repeated against the region's newer state,
    ``max_attempts`` passes at most — but only if the commit record or a
    header changed since the pass read them.  After a crash there are no
    writers, so one pass settles it, valid checkpoint or not.

    ``metrics``/``tracer`` record what the Eq. 4 recovery bound is
    checked against: recovery seconds, payload bytes, and attempts.

    Raises :class:`~repro.errors.NoCheckpointError` when the region holds
    no valid checkpoint (fresh format, or every record was torn).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    span = tracer.begin("recovery", device=layout.device.name)
    start = time.monotonic()

    def _observe(outcome: str, attempts: int, meta: Optional[CheckMeta] = None):
        if metrics is not None:
            metrics.observe(M.RECOVERY_SECONDS, time.monotonic() - start)
            metrics.inc(M.RECOVERY_ATTEMPTS, max(attempts, 1))
            if meta is not None and meta.payload_len:
                metrics.inc(M.RECOVERY_BYTES, meta.payload_len)
        tracer.end(span, outcome=outcome,
                   counter=meta.counter if meta is not None else None)

    for attempt in range(1, max_attempts + 1):
        seen: List[object] = []
        refused = 0
        for meta, source in _candidates(layout, seen):
            view = load_validated(layout, meta, chunk_size)
            if view is not None:
                _observe(source, attempt, meta)
                return RecoveredCheckpoint(meta, view, source)
            refused += 1
        if not refused or seen == [
            commit_record_candidate(layout), layout.read_all_slot_headers()
        ]:
            _observe("no-checkpoint", attempt)
            raise NoCheckpointError(
                f"no valid checkpoint found on {layout.device.name}"
            )
    _observe("unstable", max_attempts)
    raise NoCheckpointError(
        f"checkpoint on {layout.device.name} kept changing under the "
        f"reader ({max_attempts} attempts)"
    )


def recover_striped(
    members,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Reassemble and recover a checkpoint striped across ``members``.

    Opens the stripe set (validating every member's CRC-protected
    manifest) and runs :func:`recover` on its layout — the striped
    ``readinto`` lands each member's segments directly in the
    destination buffer.  A member that dies mid-recovery surfaces as the
    same typed :class:`~repro.errors.CorruptCheckpointError` (naming the
    device) that ``StripedDevice.open`` raises for an unreadable one:
    ONE failure mode for a degraded stripe set, never a short payload.
    """
    device = StripedDevice.open(members)
    try:
        layout = DeviceLayout.open(device)
        return recover(layout, chunk_size, max_attempts=max_attempts,
                       metrics=metrics, tracer=tracer)
    except CrashedDeviceError as exc:
        raise CorruptCheckpointError(
            f"stripe member failed during striped recovery: {exc}"
        ) from exc


def recover_tiered(
    hot,
    warm=None,
    remote=None,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Recover from a tiered stack, walking tiers fastest-first.

    ``hot`` may be a :class:`~repro.storage.tiering.TieredDevice` (its
    ``warm``/``remote`` members are used) or a plain device with the
    colder tiers passed explicitly.  Walk order is latency order, **hot
    → warm → remote**, and the first tier that yields a valid checkpoint
    wins: demotion is asynchronous, so a faster tier holding data is
    always at least as new as the tiers below it.  Each local tier is
    opened and recovered independently — a corrupt superblock, torn
    records, a crashed device or a payload CRC mismatch all *fall
    through* to the next tier.  The remote tier is scanned newest blob
    first, validating each blob's embedded header and payload CRC (a PUT
    not yet visible is simply not listed — never half-read).

    Raises :class:`~repro.errors.NoCheckpointError` naming every tier's
    typed failure when no tier can serve a checkpoint.
    """
    # Imported here: tiering imports this module (cycle otherwise).
    from repro.storage.tiering import REMOTE_PREFIX

    if warm is None and hasattr(hot, "warm"):
        warm = hot.warm
    if remote is None and hasattr(hot, "remote"):
        remote = hot.remote
    failures: List[Tuple[str, BaseException]] = []

    def _note(tier: str, outcome: str) -> None:
        if metrics is not None:
            metrics.inc(M.TIER_RECOVERY_ATTEMPTS, tier=tier, outcome=outcome)

    for tier, device in (("hot", hot), ("warm", warm)):
        if device is None:
            continue
        try:
            layout = DeviceLayout.open(device)
            result = recover(layout, chunk_size, max_attempts=max_attempts,
                             metrics=metrics, tracer=tracer)
        except (LayoutError, NoCheckpointError, CorruptCheckpointError,
                StorageError) as exc:
            failures.append((tier, exc))
            _note(tier, type(exc).__name__)
            continue
        _note(tier, "recovered")
        result.source = f"{tier}:{result.source}"
        return result

    if remote is not None:
        try:
            keys = remote.list(REMOTE_PREFIX)
            for key in reversed(keys):  # newest counter first
                blob = as_view(remote.get(key))
                meta = decode_slot_header(blob[:RECORD_SIZE])
                if meta is None:
                    continue
                view = blob[RECORD_SIZE:RECORD_SIZE + meta.payload_len]
                if payload_crc(view) != meta.payload_crc:
                    continue
                _note("remote", "recovered")
                if metrics is not None:
                    metrics.inc(M.RECOVERY_BYTES, len(view))
                return RecoveredCheckpoint(meta, view.toreadonly(), "remote")
            failures.append(("remote", NoCheckpointError(
                f"no valid blob among {len(keys)} under {REMOTE_PREFIX!r}"
            )))
            _note("remote", "NoCheckpointError")
        except (RemoteUnavailableError, KeyError) as exc:
            failures.append(("remote", exc))
            _note("remote", type(exc).__name__)

    detail = "; ".join(
        f"{tier}: {type(exc).__name__}({exc})" for tier, exc in failures
    )
    raise NoCheckpointError(
        f"no tier holds a valid checkpoint ({detail or 'no tiers given'})"
    )


def try_recover(
    layout: DeviceLayout,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> Optional[RecoveredCheckpoint]:
    """:func:`recover`, with ``None`` instead of ``NoCheckpointError``
    (same ``max_attempts`` bound on both entry points)."""
    try:
        return recover(layout, chunk_size, max_attempts=max_attempts,
                       metrics=metrics, tracer=tracer)
    except NoCheckpointError:
        return None
