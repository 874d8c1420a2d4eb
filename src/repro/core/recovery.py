"""Recovery: find and load the newest valid checkpoint (§4.2).

The commit record (``CHECK_ADDR``) names the last consistent checkpoint;
if the crash tore it, the slot headers are tried, newest counter first.
Sound because a header is persisted only *after* its payload is durable
(valid header + matching CRC ⇒ complete checkpoint), and a recycled slot
keeps its old header over bytes that no longer match it.

ONE attempt loop, :func:`_walk`, serves every restore: :func:`recover`
hands it a region's candidates (a tiered stack chains its tiers through
it), :func:`recover_consistent` the steps every rank's region holds.  ONE
loader, :func:`load_validated`, reads each candidate's payload exactly
once, chunk by chunk, straight into one buffer, each pool reader CRCing
the chunk it filled; the buffer comes back, read-only, only if the
combined CRC matches — **the validated bytes are the returned bytes**
(docs/ALGORITHM.md §Recovery).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


def _commit_record_candidate(layout: DeviceLayout) -> Optional[CheckMeta]:
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
    committed = _commit_record_candidate(layout)
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


def _walk(layouts: Sequence[DeviceLayout], candidates: Callable[[list], Iterator],
          load: Callable, max_attempts: int) -> Tuple[int, object, bool]:
    """THE attempt loop: ``(attempts, loaded, unstable)``.

    A pass tries ``candidates(seen)`` best-first and returns the first
    one ``load`` admits; a refused candidate falls through to the next.
    A pass that refused something runs again only if the records it read
    (``seen``) differ from what ``layouts`` hold now — a writer recycled
    a slot under an online reader — ``max_attempts`` passes at most, then
    ``unstable``.  Otherwise it settles, ``loaded`` ``None``: after a
    crash there are no writers, so one pass is final.
    """
    for attempt in range(1, max_attempts + 1):
        seen: List[object] = []
        refused = False
        for candidate in candidates(seen):
            loaded = load(candidate)
            if loaded is not None:
                return attempt, loaded, False
            refused = True
        if not refused or seen == [
            record for layout in layouts
            for record in (_commit_record_candidate(layout),
                           layout.read_all_slot_headers())
        ]:
            return attempt, None, False
    return max_attempts, None, True


def recover(
    source,
    chunk_size: int = DEFAULT_READ_CHUNK,
    max_attempts: int = 8,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
) -> RecoveredCheckpoint:
    """Load the newest valid checkpoint ``source`` holds, whatever stack
    the bytes live on: a :class:`~repro.core.layout.DeviceLayout` (plain,
    unbuffered or striped device alike) or a
    :class:`~repro.storage.tiering.TieredDevice` (:func:`_walk_tiers`).

    A region's candidates are the commit record's checkpoint, then the
    slot headers by descending counter; :func:`_walk` returns the first
    one :func:`load_validated` admits.  ``metrics``/``tracer`` record
    what the Eq. 4 recovery bound is checked against: recovery seconds,
    payload bytes, and attempts.

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

    def load(candidate: Tuple[CheckMeta, str]) -> Optional[RecoveredCheckpoint]:
        meta, found_by = candidate
        view = load_validated(layout, meta, chunk_size)
        return None if view is None else RecoveredCheckpoint(meta, view, found_by)

    attempts, found, unstable = _walk(
        [layout], lambda seen: _candidates(layout, seen), load, max_attempts
    )
    if metrics is not None:
        metrics.observe(M.RECOVERY_SECONDS, time.monotonic() - start)
        metrics.inc(M.RECOVERY_ATTEMPTS, attempts)
        if found is not None and found.meta.payload_len:
            metrics.inc(M.RECOVERY_BYTES, found.meta.payload_len)
    if found is not None:
        tracer.end(span, outcome=found.source, counter=found.meta.counter)
        return found
    tracer.end(span, outcome="unstable" if unstable else "no-checkpoint",
               counter=None)
    raise NoCheckpointError(
        f"checkpoint on {layout.device.name} kept changing under the reader "
        f"({max_attempts} attempts)" if unstable
        else f"no valid checkpoint found on {layout.device.name}"
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
    least as new as the tiers below it.  A local tier's typed failure
    (superblock, torn records, crashed device, CRC mismatch) *falls
    through* to the next.  Remote blobs are scanned newest first, each
    validated by its embedded header and payload CRC (a PUT not yet
    visible is not listed — never half-read).
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

    ``payloads`` is aligned with *reader* rank, ``metas`` and ``sources``
    with the *writer* ranks whose devices it was read from; the two
    worlds differ only when elastic recovery re-partitioned the state.
    """

    step: int
    payloads: List[memoryview]  # read-only, index-aligned with reader rank
    metas: List[CheckMeta]  # index-aligned with writer rank
    #: Per-writer-rank location mechanism: "commit-record" or "slot-scan".
    sources: List[str]
    #: Reader world the payloads are partitioned for.
    world_size: int
    #: Writer world that produced the checkpoint.
    writer_world: int
    #: True when the payloads were re-partitioned onto a different world.
    resharded: bool


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


def _reshard_payloads(
    step: int, payloads: List[bytes], world_size: int
) -> List[bytes]:
    """Re-partition N writers' self-describing shard payloads onto
    ``world_size`` readers (:func:`~repro.core.reshard.reshard_shards`)."""
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

    The cut is one more candidate source of :func:`_walk`: each rank's
    records (headers only, ordered as :func:`recover` orders them) map
    its steps to checkpoints, and a candidate is a step every rank
    holds, newest first.  Loading it reads each rank's payload once,
    trying that rank's same-step checkpoints in order; one rank with
    none valid refuses the step.  When the records kept changing for
    ``max_attempts`` passes, the error names the rank that kept failing.

    ``world_size`` asks for **elastic recovery**: the payloads come back
    re-partitioned onto that many reader ranks, as self-describing
    shards.  The writers' payloads must be shards
    (:func:`~repro.core.sharding.shard_payload`), else
    :class:`~repro.errors.DistributedError`; the writer count itself
    returns them bit-identical to the non-elastic path.

    Raises :class:`~repro.errors.NoCheckpointError` when no common step
    loads on every rank (e.g. a device was wiped).
    """
    if not layouts:
        raise DistributedError("need at least one worker layout")
    if world_size is not None and world_size < 1:
        raise DistributedError(f"target world size must be >= 1, got {world_size}")
    started = time.monotonic()
    held: List[List[int]] = []
    refused_at = (0, 0)  # (rank, step) of the last refused load

    def steps(seen: List[object]) -> Iterator[Tuple[int, list]]:
        by_rank: List[Dict[int, list]] = [{} for _ in layouts]
        for layout, by_step in zip(layouts, by_rank):
            for meta, found_by in _candidates(layout, seen):
                by_step.setdefault(meta.step, []).append((meta, found_by))
        held[:] = [sorted(by_step) for by_step in by_rank]
        for step in sorted(set(by_rank[0]).intersection(*by_rank), reverse=True):
            yield step, [by_step[step] for by_step in by_rank]

    def load(candidate: Tuple[int, list]) -> Optional[Tuple[int, list]]:
        nonlocal refused_at
        step, per_rank = candidate
        loaded = []
        for rank, (layout, same_step) in enumerate(zip(layouts, per_rank)):
            for meta, found_by in same_step:
                payload = load_validated(layout, meta, chunk_size)
                if payload is not None:
                    loaded.append((payload, meta, found_by))
                    break
            else:
                refused_at = (rank, step)
                return None
        return step, loaded

    attempts, found, unstable = _walk(layouts, steps, load, max_attempts)
    if unstable:
        rank, step = refused_at
        raise DistributedError(
            f"rank {rank}'s payload for step {step} failed CRC re-validation "
            f"{max_attempts} times (slot kept changing under the reader); "
            f"its device {layouts[rank].device.name} is unstable or corrupt"
        )
    if found is None:
        raise NoCheckpointError(
            "no training step has a valid checkpoint on every worker "
            f"(per-rank steps named by headers: {held})"
        )
    step, loaded = found
    payloads, metas, sources = (list(column) for column in zip(*loaded))
    resharded = world_size is not None and world_size != len(payloads)
    out_payloads = (_reshard_payloads(step, payloads, world_size)
                    if resharded else payloads)
    if metrics is not None:
        metrics.observe(M.RECOVERY_SECONDS, time.monotonic() - started)
        metrics.inc(M.RECOVERY_ATTEMPTS, attempts)
        metrics.inc(M.RECOVERY_BYTES, sum(len(p) for p in payloads))
    return ConsistentCheckpoint(
        step=step, payloads=out_payloads, metas=metas, sources=sources,
        world_size=len(out_payloads), writer_world=len(metas),
        resharded=resharded,
    )
