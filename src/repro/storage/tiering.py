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

    * **warm**: the worker commits the payload through its own
      :class:`~repro.core.engine.CheckpointEngine` over a second
      formatted region on the warm device — the engine's full commit
      protocol — so the warm region is itself always recoverable, even
      if power fails mid-demotion.  The
      engine's free-slot queue never hands out the slot the warm commit
      record points at; hot counters skip (aborted and superseded
      tickets, skipped demotions), so no slot rule derived from them can
      promise that.  Warm metas therefore carry warm-local counters; the
      step, the payload and the recovered source label are the hot
      commit's.
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

import queue
import threading
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout
from repro.core.meta import RECORD_SIZE, CheckMeta, encode_slot_header
from repro.core.recovery import find_committed, load_validated
from repro.errors import (
    ConfigError,
    CrashedDeviceError,
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

    ``demote_threads`` sizes the writer pool of the engine that commits
    demotions onto the warm device; the ``remote_*`` knobs parameterize
    the built :class:`~repro.storage.remote.RemoteStore` (all default to
    the fast/deterministic settings).  ``max_queue`` bounds the demotion
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
        # Bound once: on_commit sets it on the committing thread.
        self._queue_gauge = (
            None if metrics is None else metrics.gauge(M.TIER_DEMOTION_QUEUE)
        )
        self._queue: "queue.Queue[Union[CheckMeta, object]]" = queue.Queue(
            maxsize=self._plan.max_queue
        )
        self._warm = self._attach_warm(warm)
        # Hot counter of the newest demotion.  Demotions arrive in commit
        # order, but one overtaken by a newer commit must not reach the
        # warm engine, which would commit it as the warm region's newest.
        self._last_demoted = -1
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

    def _attach_warm(self, warm: PersistentDevice) -> CheckpointEngine:
        """The engine that commits demotions onto the warm region.

        An existing warm region is reopened and the engine resumes after
        its newest checkpoint; a missing one — or one too small for this
        engine's payloads — is formatted with the hot region's slot
        count (warm payloads are hot payloads).  The engine keeps its own
        private registry, so warm commits are not counted as the
        tenant's.
        """
        hot = self._hot_layout.geometry
        try:
            layout: Optional[DeviceLayout] = DeviceLayout.open(warm)
        except (LayoutError, StorageError):
            layout = None
        recovered = None
        if layout is not None and layout.payload_capacity >= hot.payload_capacity:
            recovered = find_committed(layout)
        else:
            layout = DeviceLayout.format(
                warm,
                num_slots=hot.num_slots,
                slot_size=hot.payload_capacity + RECORD_SIZE,
            )
        return CheckpointEngine(
            layout, writer_threads=self._plan.demote_threads,
            recovered=recovered,
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
            self._skip()
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
        if meta.counter <= self._last_demoted:
            self._skip()
            return
        # Re-read and re-validate the hot copy: the slot may have been
        # recycled under a newer checkpoint since this commit queued.
        try:
            payload = load_validated(self._hot_layout, meta)
        except PCcheckError as exc:
            self._count_failure("hot", exc)
            return
        if payload is None:
            self._skip()
            return
        warm_ok = self._demote_warm(meta, payload)
        remote_ok = self._demote_remote(meta, payload)
        if warm_ok or remote_ok:
            self._last_demoted = meta.counter
            with self._lock:
                self.demoted += 1
            if self._metrics is not None:
                self._metrics.observe(
                    M.TIER_DEMOTION_SECONDS, time.monotonic() - start
                )

    def _demote_warm(self, meta: CheckMeta, payload: memoryview) -> bool:
        """Commit the payload on the warm region through the warm engine,
        so power loss between any two of its steps leaves the warm
        region's previous checkpoint intact and recoverable."""
        try:
            self._warm.checkpoint(payload, step=meta.step)
        except CrashedDeviceError as exc:
            # Power loss under the warm tier dangles the ticket, as on
            # hardware.  Retire the engine: later demotions then fail
            # fast instead of waiting for a slot only a restart frees.
            self._warm.close()
            self._count_failure("warm", exc)
            return False
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

    def _skip(self) -> None:
        with self._lock:
            self.skipped += 1
        self._inc(M.TIER_DEMOTION_SKIPPED)

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
        if self._queue_gauge is not None:
            self._queue_gauge.set(self._queue.qsize())

    @property
    def warm_engine(self) -> CheckpointEngine:
        """The engine committing demotions; recovery walks its
        ``layout``, the warm tier's formatted region."""
        return self._warm

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
        self._warm.close()

    def __enter__(self) -> "TierPolicy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
