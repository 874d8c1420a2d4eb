"""Tiered checkpoint storage: hot commit path, async demotion to cold.

PCcheck's evaluation assumes one local persistence tier; a fleet-scale
service wants TierCheck-style tiering — keep the newest checkpoints on
the fastest local medium, mirror them to slower/cheaper tiers *off the
commit path*, and at restart walk the tiers fastest-first.  This module
supplies the three pieces:

:class:`TieredDevice`
    The device the engine runs on.  It *is* the hot tier: every
    ``write``/``read``/``persist`` (and the alignment hint) delegates to
    the hot device and nothing else — the commit record structurally
    cannot depend on the warm or remote tier, which is the invariant the
    ``tiered`` crashsweep workload proves dynamically.

:class:`TierPolicy`
    The demotion engine.  Its :meth:`~TierPolicy.on_commit` hook is
    installed as the engine's ``post_cas_hook``: each committed
    checkpoint is *enqueued* (never processed inline — a slow or failed
    demotion must not slow or fail a commit) and a background worker
    later copies it hot → warm → remote:

    * **warm**: the worker owns a second formatted region on the warm
      device and replays the §4.1 ordering there through its own
      :class:`~repro.core.writer.ParallelWriter` ``persist`` calls —
      payload first, then header, then (if newer) commit
      record, each durable before the next — so the warm region is
      itself always recoverable, even if power fails mid-demotion.
    * **remote**: one whole-blob PUT (``ckpt/<counter>`` = slot header
      + payload) to a :class:`~repro.storage.remote.RemoteStore`.  No
      ordering is needed: blobs are atomic, and a lost PUT only means
      the cold tier lags.

    A checkpoint superseded before its demotion ran (slot recycled, CRC
    no longer matches) is skipped, not an error.  Remote outages and a
    crashed local device are counted and survived — the worker must
    outlive any tier's failure.

:func:`~repro.core.recovery.recover`
    The restart path, given the :class:`TieredDevice`: hot, then warm,
    then remote, CRC-re-validating at every tier and falling through on
    corrupt/missing copies (the one restore walk; it lives in
    ``repro.core.recovery``).
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.layout import DeviceLayout
from repro.core.meta import (
    RECORD_SIZE,
    CheckMeta,
    encode_commit_record,
    encode_slot_header,
)
from repro.core.recovery import load_validated
from repro.core.writer import ParallelWriter
from repro.errors import (
    ConfigError,
    LayoutError,
    PCcheckError,
    StorageError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.device import DeviceWrapper, PersistentDevice
from repro.storage.remote import RemoteStore, remote_key

#: Poll interval for :meth:`TierPolicy.drain` while the worker catches up.
_DRAIN_POLL_SECONDS = 0.001


@dataclass(frozen=True)
class TierPlan:
    """How a tiered stack is assembled and demotes (``EngineSpec.tiers``).

    ``demote_threads`` sizes the demotion worker's ParallelWriter over
    the warm device; the ``remote_*`` knobs parameterize the built
    :class:`~repro.storage.remote.RemoteStore` (all default to the
    fast/deterministic settings).  ``max_queue`` bounds the demotion
    backlog — when full, new commits are *skipped* (counted, not
    blocked): demotion lag must never produce commit-path backpressure.
    """

    demote_threads: int = 2
    max_queue: int = 64
    remote_latency: float = 0.0
    remote_bandwidth: Optional[float] = None
    remote_visibility_ops: int = 0

    def __post_init__(self) -> None:
        if self.demote_threads < 1:
            raise ConfigError(
                f"demote_threads must be >= 1, got {self.demote_threads}"
            )
        if self.max_queue < 1:
            raise ConfigError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )

    def build_remote(self, name: str = "remote") -> RemoteStore:
        """Construct the remote store this plan describes."""
        return RemoteStore(
            name,
            latency=self.remote_latency,
            bandwidth=self.remote_bandwidth,
            visibility_ops=self.remote_visibility_ops,
        )


class TieredDevice(DeviceWrapper):
    """The hot tier, with the colder tiers attached for demotion/recovery.

    Every device operation — including :attr:`preferred_align`, so the
    layout still rounds for an unbuffered/striped hot device — is
    :class:`~repro.storage.device.DeviceWrapper`'s delegation to ``hot``
    and *only* ``hot``.  The warm device and remote store are reachable
    as attributes for the policy and recovery, but no engine write or
    persist can touch them: the commit path's durability depends on the
    hot tier alone, by construction.
    """

    def __init__(
        self,
        hot: PersistentDevice,
        warm: PersistentDevice,
        remote: RemoteStore,
    ) -> None:
        super().__init__(hot, f"tiered({hot.name})")
        self.hot = hot
        self.warm = warm
        self.remote = remote

    def attach_metrics(
        self, metrics: MetricsRegistry, label: Optional[str] = None
    ) -> None:
        super().attach_metrics(metrics, label)
        self.warm.attach_metrics(metrics, self.warm.name)
        self.remote.attach_metrics(metrics)

    def close(self) -> None:
        super().close()
        self.hot.close()
        self.warm.close()


class TierPolicy:
    """Asynchronous hot→warm→remote demotion, off the commit path.

    Construct *after* the hot layout exists and pass
    ``post_cas_hook=policy.on_commit`` to the
    :class:`~repro.core.engine.CheckpointEngine`; call :meth:`stop`
    (idempotent) before closing the devices.
    """

    _STOP = object()

    def __init__(
        self,
        layout: DeviceLayout,
        warm: PersistentDevice,
        remote: RemoteStore,
        plan: Optional[TierPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._plan = plan or TierPlan()
        self._hot_layout = layout
        self._remote = remote
        self._metrics = metrics
        self._queue: "queue.Queue[Union[CheckMeta, object]]" = queue.Queue(
            maxsize=self._plan.max_queue
        )
        self._warm_layout = self._attach_warm(warm)
        self._writer = ParallelWriter(warm, self._plan.demote_threads)
        # Highest counter the *warm commit record* points at; demotions
        # arrive in commit order, but a skipped/failed one must not let
        # an older checkpoint roll the record back.
        self._warm_committed = -1
        existing = self._warm_layout.read_all_slot_headers()
        for header in existing:
            if header is not None:
                self._warm_committed = max(self._warm_committed, header.counter)
        self.demoted = 0
        self.skipped = 0
        self.failures = 0
        #: Last error swallowed by the never-raise hook (diagnostics).
        self.last_hook_error: Optional[BaseException] = None
        self._stopped = False
        self._lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._worker_loop, name="pccheck-tier-demoter", daemon=True
        )
        self._worker.start()

    def _attach_warm(self, warm: PersistentDevice) -> DeviceLayout:
        """Reopen the warm region if one exists, else format it with the
        hot region's slot count (warm payloads are hot payloads)."""
        hot = self._hot_layout.geometry
        try:
            layout = DeviceLayout.open(warm)
            if layout.payload_capacity >= hot.payload_capacity:
                return layout
            # Too small for this engine's payloads: reformat below.
        except (LayoutError, StorageError):
            pass
        return DeviceLayout.format(
            warm,
            num_slots=hot.num_slots,
            slot_size=hot.payload_capacity + RECORD_SIZE,
        )

    # ------------------------------------------------------------------
    # the engine-facing hook

    def on_commit(self, meta: CheckMeta) -> None:
        """``post_cas_hook``: enqueue a committed checkpoint for demotion.

        Must never raise (a raising hook makes the engine *hold* the
        superseded slot) and never block: with a full backlog the commit
        is skipped and counted — demotion lag is an observability event,
        not backpressure.
        """
        try:
            self._queue.put_nowait(meta)
            self._set_queue_gauge()
        except queue.Full:
            with self._lock:
                self.skipped += 1
            self._inc(M.TIER_DEMOTION_SKIPPED)
        except BaseException as exc:
            # Defensive: nothing above should throw, but the hook
            # contract (never hold a slot) outranks any accounting.
            with self._lock:
                self.failures += 1
                self.last_hook_error = exc

    # ------------------------------------------------------------------
    # worker

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is self._STOP:
                    return
                self._demote(item)
            finally:
                self._queue.task_done()
                self._set_queue_gauge()

    def _demote(self, meta: CheckMeta) -> None:
        start = time.monotonic()
        # Re-read and re-validate the hot copy: the slot may have been
        # recycled under a newer checkpoint since this commit queued.
        try:
            payload = load_validated(self._hot_layout, meta)
        except PCcheckError as exc:
            self._count_failure("hot", exc)
            return
        if payload is None:
            with self._lock:
                self.skipped += 1
            self._inc(M.TIER_DEMOTION_SKIPPED)
            return
        warm_ok = self._demote_warm(meta, payload)
        remote_ok = self._demote_remote(meta, payload)
        if warm_ok or remote_ok:
            with self._lock:
                self.demoted += 1
            if self._metrics is not None:
                self._metrics.observe(
                    M.TIER_DEMOTION_SECONDS, time.monotonic() - start
                )

    def _demote_warm(self, meta: CheckMeta, payload: memoryview) -> bool:
        """Replay the §4.1 ordering onto the warm region."""
        layout = self._warm_layout
        slot = meta.counter % layout.num_slots
        warm_meta = dataclasses.replace(meta, slot=slot)
        try:
            # Payload durable first (split over the demote writer pool,
            # one covering fence), then the header, then — only for a
            # counter newer than the warm record — the commit record.
            # Power loss between any two steps leaves the warm region's
            # previous checkpoint intact and recoverable.
            self._writer.persist(layout.payload_offset(slot), payload)
            self._writer.persist(
                layout.slot_offset(slot), encode_slot_header(warm_meta)
            )
            if meta.counter > self._warm_committed:
                self._writer.persist(
                    layout.commit_offset, encode_commit_record(warm_meta)
                )
                self._warm_committed = meta.counter
        except PCcheckError as exc:
            self._count_failure("warm", exc)
            return False
        self._inc(M.TIER_DEMOTIONS, tier="warm")
        self._inc(M.TIER_DEMOTION_BYTES, len(payload), tier="warm")
        return True

    def _demote_remote(self, meta: CheckMeta, payload: memoryview) -> bool:
        try:
            self._remote.put(
                remote_key(meta.counter),
                b"".join((encode_slot_header(meta), payload)),
            )
        except PCcheckError as exc:
            self._count_failure("remote", exc)
            return False
        self._inc(M.TIER_DEMOTIONS, tier="remote")
        self._inc(M.TIER_DEMOTION_BYTES, len(payload), tier="remote")
        return True

    def _count_failure(self, tier: str, exc: BaseException) -> None:
        with self._lock:
            self.failures += 1
        self._inc(
            M.TIER_DEMOTION_FAILURES, tier=tier, reason=type(exc).__name__
        )

    # ------------------------------------------------------------------
    # helpers / lifecycle

    def _inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, amount, **labels)

    def _set_queue_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge(
                M.TIER_DEMOTION_QUEUE, self._queue.qsize()
            )

    @property
    def warm_layout(self) -> DeviceLayout:
        """The warm tier's formatted region (recovery walks it)."""
        return self._warm_layout

    @property
    def backlog(self) -> int:
        """Demotions enqueued but not yet processed."""
        return self._queue.qsize()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every enqueued demotion has been processed.

        Returns ``False`` on timeout (the worker may be stuck on a
        throttled remote); the backlog is preserved either way.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._queue.unfinished_tasks:  # noqa: SLF001-ish, stdlib attr
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(_DRAIN_POLL_SECONDS)
        return True

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker (idempotent).  Items still queued are dropped
        — demotion is best-effort by design; the hot tier holds truth."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        # Jump the queue-full case: the worker only needs to see the
        # sentinel eventually, and a full queue means it is alive.
        while True:
            try:
                self._queue.put_nowait(self._STOP)
                break
            except queue.Full:
                try:
                    self._queue.get_nowait()
                    self._queue.task_done()
                except queue.Empty:
                    pass
        self._worker.join(timeout)
        self._writer.close()

    def __enter__(self) -> "TierPolicy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
