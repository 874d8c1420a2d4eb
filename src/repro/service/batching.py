"""Group commit: coalescing many small tenants into one covering fence.

A tenant whose checkpoints are small would be a terrible pooled-engine
customer: every request costs a whole commit (slot header, CAS, commit
record and the fence that hardens them) for a few kilobytes.  PCcheck's
engine already persists *several scattered pieces under one fence*
(:meth:`~repro.core.engine.CheckpointTicket.submit` of a chunk list,
then :meth:`~repro.core.engine.CheckpointTicket.commit`, whose one
covering fence spans record, header and the whole payload); this module
aggregates across tenants on top of it.

Design — one whole *batch engine* seat, held for the batcher's lifetime:

* Each coalesced tenant gets **two** pinned staging buffers from the
  batch stack's DRAM pool (reject with ``dram_exhausted`` when the pool
  is dry).  Submissions copy into the buffer that is *not* referenced by
  an in-flight batch, then flip the tenant's ``latest`` pointer — so a
  tenant can keep submitting while a batch persists, and a newer
  submission simply supersedes the older one (documented
  latest-value semantics, mirroring the engine's own CAS supersede).
* A builder thread wakes when anything is dirty, waits one small
  coalescing window to gather company, then packs a *batch*: a manifest
  header plus EVERY registered tenant's newest blob (dirty or not —
  carry-forward), written as one ``submit`` of a scattered piece list
  and committed.  Because every batch is a complete snapshot of all
  tenants, the newest committed batch alone is sufficient for recovery;
  no batch chaining is needed.
* K coalesced requests therefore cost one commit — one fence on a file
  region — per *batch* instead of one per request.

Close-path ordering (regression-guarded): ``close()`` first joins the
builder thread — which finishes any in-flight batch through the writer
pool — and only then releases the tenants' pinned buffers back to the
DRAM pool.  Releasing first would hand buffers to a new owner while the
writer threads still hold views into them (torn payloads / CRC
mismatches on a slow device) and double-free on the builder's own
release path.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.recovery import try_recover
from repro.errors import AdmissionRejected, ConfigError, ServiceError
from repro.obs.metrics import M
from repro.service.admission import REASON_CAPACITY, REASON_DRAM_EXHAUSTED
from repro.storage.device import Buffer, as_view
from repro.storage.dram import PinnedBuffer

#: Batch manifest magic + format version.
BATCH_MAGIC = b"PCSB"
BATCH_VERSION = 1

_BATCH_HEADER = struct.Struct("<4sHH")  # magic, version, entry count
_ENTRY_HEADER = struct.Struct("<H Q Q I")  # name_len, step, seq, blob_len


def encode_batch_header(count: int) -> bytes:
    return _BATCH_HEADER.pack(BATCH_MAGIC, BATCH_VERSION, count)


def encode_entry_header(name: bytes, step: int, seq: int, blob_len: int) -> bytes:
    return _ENTRY_HEADER.pack(len(name), step, seq, blob_len) + name


def entry_overhead(name: str) -> int:
    """Manifest bytes one tenant adds to every batch."""
    return _ENTRY_HEADER.size + len(name.encode("utf-8"))


@dataclass(frozen=True)
class BatchEntry:
    """One tenant's blob inside a parsed batch."""

    tenant: str
    step: int
    seq: int
    #: Read-only view into the batch payload it was parsed from.
    payload: memoryview


def parse_batch(payload: Buffer) -> Dict[str, BatchEntry]:
    """Decode a committed batch payload back into per-tenant entries.

    The inverse of what the builder writes; recovery uses it to pull one
    tenant's state out of the newest committed batch.  Entries are
    zero-copy views into ``payload``.
    """
    payload = as_view(payload).toreadonly()
    if len(payload) < _BATCH_HEADER.size:
        raise ServiceError("batch payload shorter than its header")
    magic, version, count = _BATCH_HEADER.unpack_from(payload, 0)
    if magic != BATCH_MAGIC:
        raise ServiceError(f"not a service batch (magic {magic!r})")
    if version != BATCH_VERSION:
        raise ServiceError(f"unknown batch version {version}")
    offset = _BATCH_HEADER.size
    entries: Dict[str, BatchEntry] = {}
    for _ in range(count):
        name_len, step, seq, blob_len = _ENTRY_HEADER.unpack_from(payload, offset)
        offset += _ENTRY_HEADER.size
        name = bytes(payload[offset : offset + name_len]).decode("utf-8")
        offset += name_len
        blob = payload[offset : offset + blob_len]
        if len(blob) != blob_len:
            raise ServiceError(f"batch entry {name!r} truncated")
        offset += blob_len
        entries[name] = BatchEntry(tenant=name, step=step, seq=seq, payload=blob)
    return entries


class _TenantSlot:
    """Double-buffered staging state for one coalesced tenant."""

    def __init__(
        self, name: str, capacity: int, front: PinnedBuffer, back: PinnedBuffer
    ) -> None:
        self.name = name
        self.encoded_name = name.encode("utf-8")
        #: Declared per-checkpoint capacity — what this tenant reserves
        #: in every batch (its staging buffers may be larger, pool-sized).
        self.capacity = capacity
        self.buffers = (front, back)
        #: Which of the two buffers holds the newest blob (-1: none yet).
        self.latest = -1
        #: Buffer index an in-flight batch is reading (-1: none).
        self.inflight = -1
        self.step = 0
        self.seq = 0
        self.dirty = False
        #: Tickets waiting for a batch to carry their submission.
        self.pending: List = []

    def write_target(self) -> int:
        """Index of the buffer a new submission may safely overwrite."""
        if self.inflight >= 0:
            return 1 - self.inflight
        if self.latest >= 0:
            return 1 - self.latest
        return 0


class CoalescingBatcher:
    """Aggregates small tenants' checkpoints into group-committed batches
    on one whole engine seat (see module docstring)."""

    def __init__(self, lease, *, window: float = 0.002, name: str = "batch") -> None:
        """``lease`` is a whole-seat :class:`~repro.service.pool.EngineLease`
        (``EnginePool.acquire``) the batcher owns until :meth:`close`;
        ``window`` is the coalescing wait after the first dirty
        submission before a batch is cut."""
        if window < 0:
            raise ConfigError(f"coalescing window must be >= 0, got {window}")
        self._lease = lease
        self._layout = lease.stack.layout
        self._engine = lease.stack.engine
        self._dram = lease.stack.dram
        self._batches_done = self._engine.metrics.counter(M.SERVICE_BATCHES)
        self._entries_done = self._engine.metrics.counter(
            M.SERVICE_BATCH_ENTRIES
        )
        self._window = window
        self._name = name
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._slots: Dict[str, _TenantSlot] = {}
        self._seq = 0
        self._batches = 0
        self._fatal: Optional[BaseException] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=f"pccheck-{name}-builder", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # introspection

    @property
    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._slots)

    @property
    def fatal_error(self) -> Optional[BaseException]:
        """The error that killed the batch engine, if any."""
        with self._lock:
            return self._fatal

    def _capacity_remaining_locked(self) -> int:
        used = _BATCH_HEADER.size
        for slot in self._slots.values():
            used += entry_overhead(slot.name) + slot.capacity
        return self._layout.payload_capacity - used

    # ------------------------------------------------------------------
    # registration / submission

    def register(self, name: str, capacity_bytes: int) -> None:
        """Reserve batch space and two staging buffers for ``name``.

        Raises :class:`~repro.errors.AdmissionRejected` with reason
        ``capacity`` when the cumulative batch no longer fits one engine
        slot, or ``dram_exhausted`` when the stack's DRAM pool cannot
        supply the tenant's double buffer.
        """
        with self._lock:
            self._check_alive()
            if name in self._slots:
                raise ConfigError(f"tenant {name!r} already coalesced")
            if capacity_bytes > self._dram.chunk_size:
                raise AdmissionRejected(
                    f"tenant {name!r}: {capacity_bytes}-byte checkpoints "
                    f"exceed the batch staging chunk of "
                    f"{self._dram.chunk_size} bytes",
                    tenant=name,
                    reason=REASON_CAPACITY,
                )
            needed = entry_overhead(name) + capacity_bytes
            if needed > self._capacity_remaining_locked():
                raise AdmissionRejected(
                    f"tenant {name!r}: batch is full — {needed} bytes "
                    f"needed, {self._capacity_remaining_locked()} left in "
                    f"one engine slot",
                    tenant=name,
                    reason=REASON_CAPACITY,
                )
            front = self._dram.try_acquire()
            if front is None:
                raise AdmissionRejected(
                    f"tenant {name!r}: batch DRAM pool exhausted "
                    f"({self._dram.total_chunks} chunks all staged)",
                    tenant=name,
                    reason=REASON_DRAM_EXHAUSTED,
                )
            back = self._dram.try_acquire()
            if back is None:
                self._dram.release(front)
                raise AdmissionRejected(
                    f"tenant {name!r}: batch DRAM pool exhausted "
                    f"({self._dram.total_chunks} chunks all staged)",
                    tenant=name,
                    reason=REASON_DRAM_EXHAUSTED,
                )
            self._slots[name] = _TenantSlot(name, capacity_bytes, front, back)

    def submit(self, name: str, source, step: int, ticket) -> int:
        """Stage ``source``'s state as tenant ``name``'s newest checkpoint.

        ``source`` is a :class:`~repro.core.snapshot.SnapshotSource`; the
        snapshot is captured into the tenant's free buffer (the one no
        in-flight batch is reading) *before* this returns, so the caller
        may mutate its state immediately afterwards.  A resubmission
        supersedes any not-yet-batched predecessor.  ``ticket`` (a
        service ticket with ``_settle``) resolves when a batch carrying
        this or a newer submission commits.  Returns the submission
        sequence number.
        """
        with self._wake:
            self._check_alive()
            slot = self._slots.get(name)
            if slot is None:
                raise ConfigError(f"tenant {name!r} is not coalesced")
            target = slot.write_target()
            source.capture_chunk(0, source.snapshot_size(), slot.buffers[target])
            slot.latest = target
            self._seq += 1
            slot.seq = self._seq
            slot.step = step
            slot.dirty = True
            if ticket is not None:
                slot.pending.append(ticket)
            self._wake.notify_all()
            return self._seq

    def _check_alive(self) -> None:
        if self._closed:
            raise ServiceError(f"batcher {self._name!r} is closed")
        if self._fatal is not None:
            raise ServiceError(
                f"batcher {self._name!r} died: {self._fatal}"
            ) from self._fatal

    # ------------------------------------------------------------------
    # builder

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._closed and not any(
                    slot.dirty for slot in self._slots.values()
                ):
                    self._wake.wait()
                if self._fatal is not None:
                    break
                dirty = any(slot.dirty for slot in self._slots.values())
                if not dirty and self._closed:
                    break
            # Gather company: let concurrent submitters land in the same
            # batch.  Skipped during close — drain fast.
            if self._window and not self._closed:
                time.sleep(self._window)
            self._build_one_batch()

    def _build_one_batch(self) -> None:
        with self._wake:
            included = [
                slot for slot in self._slots.values() if slot.latest >= 0
            ]
            if not any(slot.dirty for slot in included):
                return
            for slot in included:
                slot.inflight = slot.latest
                slot.dirty = False
            tickets = []
            for slot in included:
                # The newest pending ticket's submission is the one this
                # batch carries; everything older was superseded by it.
                pending, slot.pending = slot.pending, []
                for index, ticket in enumerate(pending):
                    tickets.append(
                        (ticket, slot, index == len(pending) - 1)
                    )
            self._batches += 1
            batch_seq = self._batches
            entries = [
                (
                    slot,
                    slot.step,
                    slot.seq,
                    slot.buffers[slot.inflight].view(),
                )
                for slot in included
            ]
        chunks: List = [encode_batch_header(len(entries))]
        for slot, step, seq, view in entries:
            chunks.append(
                encode_entry_header(slot.encoded_name, step, seq, len(view))
            )
            chunks.append(view)
        error: Optional[BaseException] = None
        result = None
        try:
            engine_ticket = self._engine.begin(step=batch_seq)
            try:
                engine_ticket.submit(chunks)
                result = engine_ticket.commit()
            except BaseException:
                engine_ticket.abort()
                raise
        except BaseException as exc:  # noqa: BLE001 - forwarded to tickets
            error = exc
        with self._wake:
            for slot in included:
                slot.inflight = -1
            if error is not None:
                # A failed batch engine poisons the batcher: latest-value
                # durability can no longer be promised.
                self._fatal = error
                self._wake.notify_all()
        if error is None:
            self._batches_done.inc()
            self._entries_done.inc(len(entries))
        for ticket, slot, newest in tickets:
            if error is not None:
                ticket._settle(error=error)  # noqa: SLF001
            else:
                ticket._settle(  # noqa: SLF001
                    committed=result.committed and newest,
                    superseded=not newest or not result.committed,
                    counter=result.counter,
                    batch=batch_seq,
                )

    # ------------------------------------------------------------------
    # recovery helpers

    def committed_entries(self) -> Dict[str, BatchEntry]:
        """Per-tenant entries of the newest durable batch, read back from
        the device (what a post-crash recovery would see)."""
        recovered = try_recover(self._layout)
        return parse_batch(recovered.payload) if recovered is not None else {}

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Cut a final batch for anything dirty, stop the builder, then
        release staging buffers and the engine seat.

        ORDER MATTERS: the builder thread is joined *before* buffers go
        back to the DRAM pool — an in-flight batch's writer threads hold
        zero-copy views into those buffers until the batch is committed,
        and a buffer must never be re-owned while referenced (see the
        slow-device regression test).
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._thread.join()
        # Builder is quiescent: nothing references the buffers anymore.
        with self._lock:
            slots = list(self._slots.values())
            self._slots = {}
            failure = self._fatal or ServiceError(
                f"batcher {self._name!r} closed before a batch carried "
                "this submission"
            )
            leftovers = []
            for slot in slots:
                leftovers.extend(slot.pending)
                slot.pending = []
        for ticket in leftovers:
            ticket._settle(error=failure)  # noqa: SLF001
        for slot in slots:
            for buffer in slot.buffers:
                self._dram.release(buffer)
        self._lease.release()
