"""A remote object store with eventual visibility and a failure model.

The cold tier of the tiering subsystem (ROADMAP item 2) is an
object store, not a block device: checkpoints are demoted as **whole
blobs** (one PUT per checkpoint), there is no ``fsync`` — the store
acknowledges a PUT once the blob is accepted — and reads may lag writes
(S3-style eventual visibility).  :class:`RemoteStore` models exactly
those semantics so the tier policy and its crash sweeps exercise the
real failure modes:

* **Whole-blob PUT.**  ``put(key, data)`` replaces the blob atomically;
  there are no partial writes and therefore no torn blobs — the torn
  hazard of the local tiers does not exist here.
* **Eventual visibility.**  With ``visibility_ops=k``, an acknowledged
  blob becomes readable only after ``k`` further store operations (or an
  explicit :meth:`settle`).  Until then ``get``/``list`` behave as if the
  PUT never happened — the window recovery must tolerate.
* **Failure model.**  :meth:`fail` marks the store unavailable: every
  operation raises the typed
  :class:`~repro.errors.RemoteUnavailableError` until :meth:`restore`.
  :meth:`power_fail` models losing the ingest pipeline: blobs
  acknowledged but **not yet visible** are dropped — which is precisely
  why the commit record must never depend on the remote tier.
* **Latency/bandwidth.**  Optional per-op latency and byte-rate sleeps
  for benchmarks; both default off so tests stay fast and deterministic.

The op-count visibility window (rather than wall-clock) keeps crash
sweeps deterministic: the same op sequence always yields the same
visible set.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.errors import RemoteUnavailableError, StorageError
from repro.obs.metrics import M, MetricsRegistry

#: Key prefix under which demoted checkpoints live in the remote store.
REMOTE_PREFIX = "ckpt/"


def remote_key(counter: int) -> str:
    """Blob key for checkpoint ``counter`` (zero-padded so lexicographic
    order of keys equals numeric order of counters)."""
    return f"{REMOTE_PREFIX}{counter:020d}"


class RemoteStore:
    """An in-process object store with object-store (not device) semantics.

    Deliberately **not** a :class:`~repro.storage.device.PersistentDevice`:
    there are no offsets, no ``persist`` barrier, and no capacity-checked
    ranges — forcing blob semantics through the block-device interface
    would hide exactly the differences the tier policy must handle.
    """

    def __init__(
        self,
        name: str = "remote",
        *,
        latency: float = 0.0,
        bandwidth: Optional[float] = None,
        visibility_ops: int = 0,
    ) -> None:
        if latency < 0:
            raise StorageError(f"latency must be >= 0, got {latency}")
        if bandwidth is not None and bandwidth <= 0:
            raise StorageError(
                f"bandwidth must be positive, got {bandwidth}"
            )
        if visibility_ops < 0:
            raise StorageError(
                f"visibility_ops must be >= 0, got {visibility_ops}"
            )
        self.name = name
        self._latency = latency
        self._bandwidth = bandwidth
        self._visibility_ops = visibility_ops
        self._lock = threading.Lock()
        self._blobs: Dict[str, bytes] = {}
        #: key -> store-op index at which the blob becomes visible.
        self._pending: Dict[str, int] = {}
        self._op_index = 0
        self._available = True
        self.put_ops = 0
        self.get_ops = 0
        self.failed_ops = 0
        self._metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------------
    # instrumentation

    def attach_metrics(self, metrics: MetricsRegistry,
                       label: Optional[str] = None) -> None:
        """Report PUT/GET/outage counters into ``metrics``."""
        self._metrics = metrics

    def _inc(self, name: str, amount: float = 1.0) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, amount)

    # ------------------------------------------------------------------
    # internal bookkeeping (call with the lock held)

    def _check_available(self, op: str) -> None:
        # No metrics calls here: this runs with the store lock held, and
        # the registry takes its own lock (PC009 lock ordering).  Callers
        # count the failure after releasing the lock.
        if not self._available:
            self.failed_ops += 1
            raise RemoteUnavailableError(
                f"remote store {self.name!r} unavailable ({op} refused)"
            )

    def _advance(self) -> None:
        """One store operation elapsed: settle blobs whose window closed."""
        self._op_index += 1
        ready = [
            key for key, at in self._pending.items() if at <= self._op_index
        ]
        for key in ready:
            del self._pending[key]

    def _sleep_for(self, nbytes: int) -> None:
        delay = self._latency
        if self._bandwidth:
            delay += nbytes / self._bandwidth
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------------
    # object API

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` — whole-blob, atomic, no fsync.

        The PUT is acknowledged (returns) once the blob is accepted; with
        a visibility window it is not yet readable, and a
        :meth:`power_fail` before the window closes loses it.
        """
        if not key:
            raise StorageError("blob key must be non-empty")
        view = bytes(data)
        try:
            with self._lock:
                self._check_available("put")
                self._advance()
                self._blobs[key] = view
                if self._visibility_ops > 0:
                    self._pending[key] = self._op_index + self._visibility_ops
                self.put_ops += 1
        except RemoteUnavailableError:
            self._inc(M.REMOTE_FAILURES)
            raise
        self._inc(M.REMOTE_PUTS)
        self._inc(M.REMOTE_PUT_BYTES, len(view))
        self._sleep_for(len(view))

    def get(self, key: str) -> bytes:
        """Fetch a blob; ``KeyError`` when absent or not yet visible."""
        try:
            with self._lock:
                self._check_available("get")
                self._advance()
                self.get_ops += 1
                if key not in self._blobs or key in self._pending:
                    data = None
                else:
                    data = self._blobs[key]
        except RemoteUnavailableError:
            self._inc(M.REMOTE_FAILURES)
            raise
        self._inc(M.REMOTE_GETS)
        if data is None:
            raise KeyError(key)
        self._sleep_for(len(data))
        return data

    def list(self, prefix: str = "") -> List[str]:
        """Visible keys under ``prefix``, sorted."""
        try:
            with self._lock:
                self._check_available("list")
                self._advance()
                return sorted(
                    key
                    for key in self._blobs
                    if key.startswith(prefix) and key not in self._pending
                )
        except RemoteUnavailableError:
            self._inc(M.REMOTE_FAILURES)
            raise

    def delete(self, key: str) -> None:
        """Remove a blob (idempotent, like object-store DELETE)."""
        try:
            with self._lock:
                self._check_available("delete")
                self._advance()
                self._blobs.pop(key, None)
                self._pending.pop(key, None)
        except RemoteUnavailableError:
            self._inc(M.REMOTE_FAILURES)
            raise

    # ------------------------------------------------------------------
    # failure model

    def settle(self) -> None:
        """Force every acknowledged blob visible (the window elapsed)."""
        with self._lock:
            self._pending.clear()

    @property
    def available(self) -> bool:
        """False between :meth:`fail` and :meth:`restore`."""
        return self._available

    def fail(self) -> None:
        """Outage: every operation raises ``RemoteUnavailableError``."""
        with self._lock:
            self._available = False

    def restore(self) -> None:
        """End the outage; previously visible blobs are intact."""
        with self._lock:
            self._available = True

    def power_fail(self) -> None:
        """Lose the ingest pipeline: acknowledged-but-invisible blobs
        vanish; visible blobs survive (they were replicated)."""
        with self._lock:
            for key in list(self._pending):
                del self._pending[key]
                self._blobs.pop(key, None)

    # ------------------------------------------------------------------
    # introspection

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs) - len(
                [k for k in self._pending if k in self._blobs]
            )

    def visible_keys(self) -> List[str]:
        """Alias of ``list("")`` that skips the availability gate (test
        helper: inspect the durable set after an outage)."""
        with self._lock:
            return sorted(
                key for key in self._blobs if key not in self._pending
            )
