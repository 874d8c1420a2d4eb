"""Recovery: find and load the newest valid checkpoint (§4.2).

``CHECK_ADDR`` (the commit record) points to the last consistent
checkpoint.  Recovery validates it — magic, record CRC, matching slot
header, payload CRC — and loads the payload.  If the crash tore the
commit record, recovery falls back to the slot headers, newest counter
first, and takes the first slot whose header and payload both validate.
That is sound because a header is persisted only *after* its payload is
durable (valid header + matching CRC ⇒ complete checkpoint), and a
recycled slot keeps its old header over bytes that no longer match it.

ONE walk, :func:`recover`, serves every stack: a formatted region
(plain, unbuffered or striped device alike) yields the candidates above;
a :class:`~repro.storage.tiering.TieredDevice` chains its hot region,
its warm region and its remote blobs, fastest first.  Cross-device
recovery (:func:`recover_consistent`) enumerates each rank's candidates
through the same function.  Every path goes through ONE loader,
:func:`load_validated`: the payload is read exactly once, chunk by
chunk, straight into one destination buffer (``readinto`` — no ``bytes``
per chunk, no join), the reads queued on the
:class:`~repro.core.writer.ParallelWriter` pool, each reader CRCing the
chunk it just filled; the calling thread only combines the chunk CRCs,
in order, into the payload's.  The buffer comes back, read-only, only
if that CRC matches — **the validated bytes are the returned bytes**
(docs/ALGORITHM.md §Recovery).  Chunk locations come
from a *persistent iterator* that logs every read, as in the paper ("a
persistent iterator, which logs data read locations").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.layout import DeviceLayout
from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    crc32_combine,
    decode_commit_record,
    decode_slot_header,
    payload_crc,
)
from repro.core.reshard import reshard_shards
from repro.core.sharding import is_shard
from repro.core.writer import ParallelWriter
from repro.errors import (
    CorruptCheckpointError,
    DistributedError,
    LayoutError,
    NoCheckpointError,
    RemoteUnavailableError,
    StorageError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.storage.device import as_view
from repro.storage.remote import REMOTE_PREFIX

if TYPE_CHECKING:  # tiering imports this module
    from repro.storage.tiering import TieredDevice

#: Default read granularity of the persistent iterator.
DEFAULT_READ_CHUNK: int = 4 * 1024 * 1024

#: Pool threads that each read a chunk and CRC it — derived, not a knob:
#: one per core (read and CRC both drop the GIL), at most four.
READ_THREADS: int = max(1, min(os.cpu_count() or 1, 4))


@dataclass
class RecoveredCheckpoint:
    """A validated checkpoint ready to be restored into training state."""

    meta: CheckMeta
    #: Read-only buffer over exactly the bytes whose CRC admitted it.
    payload: memoryview
    #: Which mechanism located it: "commit-record" or "slot-scan";
    #: tier-prefixed ("hot:commit-record") or "remote" off a tiered stack.
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
                pool.submit_read(base + lo, view[lo : lo + chunk_size])
                for lo in starts
            ]
            for read in reads:
                pool.reap(read)  # the reader CRC'd the chunk it filled
                crc = crc32_combine(crc, read.crc, read.total)
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


def recover(
    source,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Load the newest valid checkpoint ``source`` holds — THE restore
    walk, whatever stack the bytes live on.

    ``source`` is a :class:`~repro.core.layout.DeviceLayout` (one
    formatted region, over a plain, unbuffered or striped device alike)
    or a :class:`~repro.storage.tiering.TieredDevice`, whose tiers are
    walked fastest-first (:func:`_walk_tiers`), each local tier through
    this same function.

    One pass over a region tries the commit record, then the slot
    headers by descending counter, and returns the first candidate
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

    Raises :class:`~repro.errors.NoCheckpointError` when the source holds
    no valid checkpoint (fresh format, or every record was torn; for a
    tiered source, naming every tier's typed failure).
    """
    if not isinstance(source, DeviceLayout):
        return _walk_tiers(source, chunk_size, max_attempts, metrics, tracer)
    layout = source
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
        for meta, found_by in _candidates(layout, seen):
            view = load_validated(layout, meta, chunk_size)
            if view is not None:
                _observe(found_by, attempt, meta)
                return RecoveredCheckpoint(meta, view, found_by)
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


def _walk_tiers(
    tiered: "TieredDevice",
    chunk_size: int,
    max_attempts: int,
    metrics: Optional[MetricsRegistry],
    tracer,
) -> RecoveredCheckpoint:
    """:func:`recover` for a tiered stack: latency order, **hot → warm →
    remote**, first tier that yields a valid checkpoint wins.

    Demotion is asynchronous, so a faster tier holding data is always at
    least as new as the tiers below it.  Each local tier is opened and
    recovered independently — a corrupt superblock, torn records, a
    crashed device or a payload CRC mismatch all *fall through* to the
    next tier.  The remote tier is scanned newest blob first, validating
    each blob's embedded header and payload CRC (a PUT not yet visible
    is simply not listed — never half-read).
    """
    failures: List[Tuple[str, BaseException]] = []

    def _note(tier: str, outcome: str) -> None:
        if metrics is not None:
            metrics.inc(M.TIER_RECOVERY_ATTEMPTS, tier=tier, outcome=outcome)

    # The tiered device IS its hot tier (every op delegates to it).
    for tier, device in (("hot", tiered), ("warm", tiered.warm)):
        try:
            result = recover(DeviceLayout.open(device), chunk_size,
                             max_attempts, metrics, tracer)
        except (LayoutError, NoCheckpointError, CorruptCheckpointError,
                StorageError) as exc:
            failures.append((tier, exc))
            _note(tier, type(exc).__name__)
            continue
        _note(tier, "recovered")
        result.source = f"{tier}:{result.source}"
        return result

    try:
        keys = tiered.remote.list(REMOTE_PREFIX)
        for key in reversed(keys):  # newest counter first
            blob = as_view(tiered.remote.get(key))
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
    raise NoCheckpointError(f"no tier holds a valid checkpoint ({detail})")


def try_recover(
    source,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> Optional[RecoveredCheckpoint]:
    """:func:`recover`, with ``None`` instead of ``NoCheckpointError``
    (same ``max_attempts`` bound on both entry points)."""
    try:
        return recover(source, chunk_size, max_attempts=max_attempts,
                       metrics=metrics, tracer=tracer)
    except NoCheckpointError:
        return None


def find_committed(layout: DeviceLayout) -> Optional[CheckMeta]:
    """Metadata of the newest valid checkpoint, or ``None``: the single
    pass :func:`recover` makes, with the validated payload dropped."""
    found = try_recover(layout, max_attempts=1)
    return found.meta if found is not None else None


# ----------------------------------------------------------------------
# cross-device recovery


@dataclass
class ConsistentCheckpoint:
    """The newest globally consistent checkpoint across all workers.

    ``payloads`` is index-aligned with *reader* rank; ``metas`` and
    ``sources`` stay aligned with the *writer* ranks whose devices the
    checkpoint was read from.  The two worlds coincide unless elastic
    recovery re-partitioned the state (``resharded``), in which case
    ``len(payloads) == world_size`` may differ from ``len(metas)``.
    """

    step: int
    payloads: List[memoryview]  # read-only, index-aligned with reader rank
    metas: List[CheckMeta]  # index-aligned with writer rank
    #: Per-writer-rank location mechanism: "commit-record" or "slot-scan".
    sources: List[str] = field(default_factory=list)
    #: Reader world the payloads are partitioned for.
    world_size: int = 0
    #: Writer world that produced the checkpoint.
    writer_world: int = 0
    #: True when the payloads were re-partitioned onto a different world.
    resharded: bool = False

    def __post_init__(self) -> None:
        if self.world_size == 0:
            self.world_size = len(self.payloads)
        if self.writer_world == 0:
            self.writer_world = len(self.metas)


def valid_checkpoints(layout: DeviceLayout) -> List[CheckMeta]:
    """All complete checkpoints currently on a device (slot scan).

    Includes superseded-but-not-yet-overwritten checkpoints — those are
    what make a globally consistent step recoverable when workers crashed
    at different points.
    """
    return [
        header
        for header in layout.read_all_slot_headers()
        if header is not None and load_validated(layout, header) is not None
    ]


def _candidate_steps(layout: DeviceLayout) -> Dict[int, Tuple[CheckMeta, str]]:
    """Map step -> (best validated meta, its source) for one rank's device.

    Walks the candidates :func:`recover` walks, in its order — the
    commit record's first (the rank's authoritative newest commit), then
    the slot scan, highest counter first, filling in the
    superseded-but-still-durable older steps — and keeps the first valid
    one per step.
    """
    by_step: Dict[int, Tuple[CheckMeta, str]] = {}
    for meta, found_by in _candidates(layout, []):
        if meta.step not in by_step and load_validated(layout, meta) is not None:
            by_step[meta.step] = (meta, found_by)
    return by_step


def _reshard_payloads(
    step: int, payloads: List[bytes], world_size: int
) -> List[bytes]:
    """Re-partition N writers' shard payloads onto ``world_size`` readers.

    The payloads must be self-describing shards; the global index is
    rebuilt from their headers and re-partitioned through
    :func:`~repro.core.reshard.reshard_shards`.
    """
    plain = [rank for rank, p in enumerate(payloads) if not is_shard(p)]
    if plain:
        raise DistributedError(
            f"cannot recover step {step} onto a world of {world_size}: "
            f"rank payloads {plain} are not self-describing shards, so "
            f"there is no global index to re-partition them with "
            f"(checkpoint was written by {len(payloads)} ranks; shard "
            f"with repro.core.sharding.shard_payload to enable elastic "
            f"recovery)"
        )
    try:
        return reshard_shards(payloads, world_size)
    except CorruptCheckpointError as exc:
        raise DistributedError(
            f"cannot re-partition step {step} onto a world of "
            f"{world_size}: {exc}"
        ) from exc


def recover_consistent(
    layouts: Sequence[DeviceLayout],
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    world_size: Optional[int] = None,
) -> ConsistentCheckpoint:
    """Find and load the newest step every worker holds a checkpoint for.

    Each rank's payload is loaded through :func:`load_validated`, so
    the bytes returned are the bytes whose CRC was checked — when
    recovery runs concurrently with writers (an online reader), a slot
    located via the scan can be recycled and overwritten between
    locating and loading it.  A refused load retries the whole selection
    against the region's newer state, mirroring :func:`recover`; after
    ``max_attempts`` the error names the rank whose payload kept failing.

    ``world_size`` asks for **elastic recovery**: the returned payloads
    are re-partitioned onto that many reader ranks (again as
    self-describing shards), regardless of how many writers produced
    the checkpoint.  This needs the payloads to be sharded
    (:func:`~repro.core.sharding.shard_payload`) so the global index
    can be rebuilt; recovering a non-sharded checkpoint onto a
    different world raises :class:`~repro.errors.DistributedError`.
    ``world_size`` equal to the writer count with an unchanged layout
    returns the payloads bit-identical to the non-elastic path.

    Raises :class:`~repro.errors.NoCheckpointError` when the step sets do
    not intersect (e.g. a device was wiped).
    """
    if not layouts:
        raise DistributedError("need at least one worker layout")
    if world_size is not None and world_size < 1:
        raise DistributedError(
            f"target world size must be >= 1, got {world_size}"
        )
    started = time.monotonic()
    unstable: Optional[Tuple[int, int]] = None  # (rank, step)
    for _attempt in range(max_attempts):
        per_worker = [_candidate_steps(layout) for layout in layouts]
        common: Set[int] = set(per_worker[0])
        for by_step in per_worker[1:]:
            common &= set(by_step)
        if not common:
            held = [sorted(by_step) for by_step in per_worker]
            raise NoCheckpointError(
                "no training step has a valid checkpoint on every worker "
                f"(per-rank steps: {held})"
            )
        step = max(common)
        payloads: List[memoryview] = []
        metas: List[CheckMeta] = []
        sources: List[str] = []
        unstable = None
        for rank, (layout, by_step) in enumerate(zip(layouts, per_worker)):
            meta, source = by_step[step]
            payload = load_validated(layout, meta, chunk_size)
            if payload is None:
                # Overwritten (or torn) under the reader: rescan.
                unstable = (rank, step)
                break
            payloads.append(payload)
            metas.append(meta)
            sources.append(source)
        if unstable is None:
            out_payloads = payloads
            resharded = False
            if world_size is not None and world_size != len(payloads):
                out_payloads = _reshard_payloads(step, payloads, world_size)
                resharded = True
            if metrics is not None:
                metrics.observe(
                    M.RECOVERY_SECONDS, time.monotonic() - started
                )
                metrics.inc(M.RECOVERY_ATTEMPTS, _attempt + 1)
                metrics.inc(
                    M.RECOVERY_BYTES, sum(len(p) for p in payloads)
                )
            return ConsistentCheckpoint(
                step=step, payloads=out_payloads, metas=metas,
                sources=sources,
                world_size=len(out_payloads),
                writer_world=len(metas),
                resharded=resharded,
            )
    rank, step = unstable  # type: ignore[misc]
    raise DistributedError(
        f"rank {rank}'s payload for step {step} failed CRC re-validation "
        f"{max_attempts} times (slot kept changing under the reader); "
        f"its device {layouts[rank].device.name} is unstable or corrupt"
    )
