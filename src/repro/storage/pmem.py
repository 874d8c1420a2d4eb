"""Simulated persistent main memory (PMEM).

The paper evaluates PCcheck on Intel Optane DC persistent memory, persisted
either with non-temporal stores followed by ``sfence`` (4.01 GB/s on their
machine) or with ``clwb`` write-backs followed by a fence (2.46 GB/s).
Optane is discontinued and absent here, so this module models the part of
the hardware that the *algorithm's correctness* depends on: the persistence
domain and its failure atomicity.

Model
-----
The device keeps two byte images:

``visible``
    What loads observe — the CPU cache view.  Every store (cached or
    non-temporal) updates it immediately.

``durable``
    What survives :meth:`crash` — media content.  Bytes move from
    ``visible`` to ``durable`` only when ordered to: ``sfence`` drains
    outstanding non-temporal stores, and ``clwb`` + fence (or the generic
    :meth:`persist` barrier) writes back dirty cached lines.

``crash(rng=...)`` freezes the device.  Unpersisted data is *partially and
randomly* applied at cache-line (64 B) granularity, reproducing the
reordering hazard the paper describes: "the order in which data is written
to the cache may differ from the order in which the content reaches PMEM,
leading to inconsistent states upon a failure" (§2.3).  Durability tests
inject crashes at arbitrary points and assert the recovery invariant.

Bandwidth
---------
An optional ``persist_bandwidth`` (bytes/second) makes durability barriers
take real wall-clock time so functional benchmarks reflect the nt-store vs
clwb asymmetry.  It defaults to ``None`` (instantaneous) for unit tests.
"""

from __future__ import annotations

from typing import Optional

from repro.storage.device import Buffer, IntervalSet, TwoImageDevice

#: Measured on the paper's PMEM machine (§3.3): non-temporal store + sfence.
NT_STORE_BANDWIDTH: float = 4.01e9
#: Measured on the paper's PMEM machine (§3.3): clwb + fence.
CLWB_BANDWIDTH: float = 2.46e9


class SimulatedPMEM(TwoImageDevice):
    """Byte-addressable persistent memory with an explicit persistence domain.

    Thread-safe: the checkpoint engine persists with multiple writer
    threads, each covering a disjoint range, and all of them may fence
    concurrently.
    """

    def __init__(
        self,
        capacity: int,
        name: str = "pmem",
        persist_bandwidth: Optional[float] = None,
        use_nt_stores: bool = True,
    ) -> None:
        super().__init__(capacity, name, persist_bandwidth)
        self._dirty = IntervalSet()  # cached stores not yet written back
        self._pending_nt = IntervalSet()  # nt stores not yet fenced
        self._flush_queued = IntervalSet()  # clwb issued, fence pending
        self._at_risk = (self._dirty, self._pending_nt)
        self._use_nt_stores = use_nt_stores

    # ------------------------------------------------------------------
    # store paths

    def write(self, offset: int, data: Buffer) -> None:
        """Default store path: nt-store when enabled, else cached store.

        PCcheck writes checkpoint payloads exactly once without reading
        them back, so the paper picks the non-temporal path (§3.3); this
        device mirrors that default while still exposing both primitives.
        """
        if self._use_nt_stores:
            self.nt_store(offset, data)
        else:
            self.cached_store(offset, data)

    def cached_store(self, offset: int, data: Buffer) -> None:
        """A regular (write-back cached) store; durable only after
        ``clwb`` + fence covers it."""
        self._store(offset, data, self._dirty)

    def nt_store(self, offset: int, data: Buffer) -> None:
        """A non-temporal store: bypasses the cache, durable after ``sfence``."""
        self._store(offset, data, self._pending_nt)

    # ------------------------------------------------------------------
    # persistence barriers

    def clwb(self, offset: int, length: int) -> None:
        """Queue a write-back of the dirty lines in the range.

        Like hardware ``clwb``, this does NOT guarantee durability by
        itself: the data reaches the persistence domain only at the next
        :meth:`sfence`.
        """
        self._check_alive()
        self._check_range(offset, length)
        with self._lock:
            for lo, hi in self._dirty.intersect(offset, offset + length):
                self._flush_queued.add(lo, hi)

    def sfence(self) -> None:
        """Drain pending non-temporal stores and queued write-backs.

        On return, every byte covered by a prior ``nt_store`` or ``clwb``
        is durable.
        """
        self._check_alive()
        start = self._obs_start()
        with self._lock:
            drained = 0
            for spans in (self._pending_nt, self._flush_queued):
                drained += self._harden(spans)
                for lo, hi in spans:
                    self._dirty.remove(lo, hi)
            self._pending_nt.clear()
            self._flush_queued.clear()
            self.stats.bytes_persisted += drained
            self.stats.persist_ops += 1
        self._charge_bandwidth(drained)
        self._obs_op("persist", drained, start)

    def persist(self, offset: int, length: int) -> None:
        """Generic durability barrier: clwb the range, then fence.

        Also drains nt-stores, as a real ``sfence`` would; only the
        requested cached range is written back.
        """
        self.clwb(offset, length)
        self.sfence()

    def recover(self) -> None:
        """Come back from a crash; queued write-backs are volatile
        tracking state too."""
        with self._lock:
            super().recover()
            self._flush_queued.clear()
