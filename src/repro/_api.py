"""High-level convenience API.

:func:`open_checkpointer` is the one-call path a downstream user takes:
point it at a file (or pick an in-memory backend), say how big your
checkpoints are and how many may run concurrently, and get back a ready
:class:`Checkpointer` plus recovery of whatever the file already holds.

The device/layout/engine/orchestrator(/tiers) assembly lives in
:func:`repro.service.pool.build_stack` and nowhere else — this module is
a *thin one-tenant view*: ``open_checkpointer`` builds an
:class:`~repro.service.pool.EngineSpec` and calls ``build_stack`` once,
and :class:`Checkpointer` owns that stack; with ``pool=`` it instead
takes a whole seat of a shared :class:`~repro.service.pool.EnginePool`
for its lifetime.  The CLI, the multi-tenant service, the training
strategy, the demo driver and the crash sweep obtain their stacks from
the same builder (the module docstring of :mod:`repro.service.pool`
lists the bare-engine sites that deliberately do not).

The :class:`Checkpointer` delegates everything a user needs —
``checkpoint_async``/``wait``/``latest``/``metrics``/``trace`` — so
application code never reaches into ``.orchestrator`` or ``.engine``
(those attributes remain for tests and power users).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.config import validate_choice
from repro.core.meta import CheckMeta
from repro.core.orchestrator import CheckpointHandle
from repro.core.snapshot import SnapshotSource, as_source
from repro.service.pool import (
    EngineLease,
    EnginePool,
    EngineSpec,
    EngineStack,
    build_stack,
)
from repro.storage.device import PersistentDevice
from repro.storage.tiering import TierPlan


class Checkpointer:
    """A ready-to-use PCcheck stack: device + engine + orchestrator.

    Built by :func:`open_checkpointer`.  The public surface is the five
    delegation methods; the assembled components stay reachable as
    attributes (``device``, ``layout``, ``engine``, ``orchestrator``,
    ``config``, ``recovered``) for tests and advanced use.

    :meth:`close` is ownership-aware: a stack the checkpointer owns is
    torn down; a seat of an injected shared pool is released (draining
    in-flight checkpoints) and its engine stays warm for the next tenant.
    """

    def __init__(
        self, stack: EngineStack, lease: Optional[EngineLease] = None
    ) -> None:
        """A view of ``stack``: the checkpointer's own, or ``lease``'s
        seat of a borrowed pool, which outlives this checkpointer."""
        self.device = stack.device
        self.layout = stack.layout
        self.engine = stack.engine
        self.orchestrator = stack.orchestrator
        self.config = stack.config
        #: Checkpoint recovered from the region at open time, if any.
        self.recovered = stack.recovered
        self.observability = stack.observability
        self._stack = stack
        self._lease = lease
        self._closed = False

    # ------------------------------------------------------------------
    # checkpointing

    def checkpoint_async(
        self, state: Union[bytes, SnapshotSource], step: int = 0
    ) -> CheckpointHandle:
        """Start a concurrent checkpoint of ``state``.

        ``state`` may be any buffer-protocol object (wrapped zero-copy in
        a :class:`~repro.core.snapshot.BytesSource` — the caller must keep
        the memory stable until the handle's capture finished, i.e. until
        :meth:`wait_for_snapshots` returns) or any
        :class:`~repro.core.snapshot.SnapshotSource`.  Returns a handle;
        ``handle.wait()`` blocks for that one checkpoint, :meth:`wait`
        blocks for all of them.
        """
        return self.orchestrator.checkpoint_async(as_source(state), step=step)

    def checkpoint(
        self, state: Union[bytes, SnapshotSource], step: int = 0
    ):
        """Checkpoint ``state`` and wait for its commit.

        The checkpoint runs end to end on the calling thread as one
        straight-line function — counter and slot, capture, CRC, write,
        commit — with no thread hand-off and no future or event built.
        One that fits one staging chunk (the default ``chunk_size`` is
        the whole payload) is written by that thread too up to
        :data:`~repro.core.orchestrator.INLINE_WRITE_MAX_BYTES`; above
        it the payload streams to the writer pool in pieces of that
        size, each written while the next is copied.  A larger
        checkpoint's chunks go to the pool whole, each written while
        the next is copied.
        """
        return self.orchestrator.checkpoint_sync(as_source(state), step=step)

    def wait_for_snapshots(self) -> float:
        """Block until in-flight captures finished (call before every
        weight update); returns seconds stalled."""
        return self.orchestrator.wait_for_snapshots()

    def wait(self, timeout: Optional[float] = None) -> List:
        """Block until every outstanding checkpoint finished."""
        return self.orchestrator.drain(timeout)

    def latest(self) -> Optional[CheckMeta]:
        """Metadata of the newest committed checkpoint, or ``None``."""
        return self.engine.committed()

    # ------------------------------------------------------------------
    # observability

    def metrics(self, format: str = "snapshot"):
        """The stack's telemetry: ``"snapshot"`` (dict), ``"json"`` or
        ``"prometheus"`` (text expositions)."""
        validate_choice(
            "metrics format", format, ("snapshot", "json", "prometheus")
        )
        registry = self.engine.metrics
        if format == "snapshot":
            return registry.snapshot()
        if format == "json":
            return registry.to_json()
        return registry.to_prometheus()

    def trace(self) -> dict:
        """The Chrome ``trace_event`` document of recorded lifecycle
        spans (empty unless opened with ``observability=\"full\"``)."""
        return self.engine.tracer.to_chrome_trace()

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Drain in-flight checkpoints and give the engine back.

        An owned (default) stack is fully torn down, device released.  On
        an injected shared pool the seat is released and the engine stays
        warm for the pool's next tenant.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._lease is not None:
            self._lease.release()
        else:
            self._stack.close()

    def __enter__(self) -> "Checkpointer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_checkpointer(
    path: Optional[str] = None,
    *,
    capacity_bytes: Optional[int] = None,
    num_concurrent: int = 2,
    writer_threads: int = 3,
    chunk_size: Optional[int] = None,
    num_chunks: int = 2,
    backend: str = "ssd",
    observability: str = "metrics",
    stripe_devices: int = 1,
    stripe_size: int = 1 << 20,
    tiers=None,
    pool: Optional[EnginePool] = None,
    device: Optional[PersistentDevice] = None,
) -> Checkpointer:
    """Open (or create) a PCcheck region and return a :class:`Checkpointer`.

    ``capacity_bytes`` is the largest checkpoint payload you intend to
    write; the region is sized to ``(N + 1)`` slots of that payload plus
    metadata (Table 1's storage footprint).

    ``backend`` selects the storage substrate:

    * ``"ssd"`` (default) — a real file at ``path``; if it already
      contains a formatted region it is reopened and its newest valid
      checkpoint is returned in :attr:`Checkpointer.recovered`;
    * ``"pmem"`` — the simulated persistent-memory device (in-process,
      fresh each open);
    * ``"faults"`` — an in-memory SSD behind a crash-injection wrapper
      with op recording, for durability testing.

    ``stripe_devices``/``stripe_size`` (``ssd`` only) shard the region
    across N member files (``{path}.s0`` … ``.s{N-1}``) so one
    checkpoint's persist bandwidth aggregates across devices; point the
    members at different spindles for real parallelism.  An ``ssd``
    region's file(s) are written with O_DIRECT where the filesystem
    allows it: payloads go from page-aligned staging buffers straight to
    the device, skipping the page cache (``docs/PERFORMANCE.md``).

    ``tiers=`` (a :class:`~repro.storage.tiering.TierPlan`, or ``True``
    for the defaults) enables tiered storage: the backend device becomes
    the hot tier, committed checkpoints are asynchronously demoted to a
    warm device (``{path}.warm`` beside an ``ssd`` region file; in memory
    over an injected ``device=`` or a simulated backend) and a remote
    object store, and :func:`repro.core.recovery.recover` over the
    checkpointer's device walks the tiers fastest-first at restart (see
    ``docs/STORAGE.md``).

    ``chunk_size`` (default: the whole payload) is the staging chunk a
    checkpoint is captured and persisted in, ``num_chunks`` the staging
    buffers.  ``writer_threads`` (§3.3's ``p``) splits the write of
    every chunk of a multi-chunk checkpoint and every 2 MiB piece of a
    one-chunk payload above
    :data:`~repro.core.orchestrator.INLINE_WRITE_MAX_BYTES` (2 MiB), which
    reaches the pool piece by piece as it is staged; a smaller one-chunk
    payload is written on the thread that runs its checkpoint, where the
    pool's hand-off would cost more than the split saves.

    ``observability`` selects the telemetry level: ``"off"`` keeps the
    engine's private registry but instruments nothing else, ``"metrics"``
    (default) shares one registry across engine/orchestrator/device, and
    ``"full"`` additionally records per-checkpoint lifecycle spans
    (exported by :meth:`Checkpointer.trace`).

    Dependency injection (keyword-only):

    * ``pool=`` — take a whole seat (``EnginePool.acquire``) of an
      existing shared :class:`~repro.service.pool.EnginePool` instead of
      building a stack; the geometry/backend knobs are ignored (the
      pool's spec already fixed them) and :meth:`Checkpointer.close`
      returns the seat to the pool instead of tearing the stack down.
    * ``device=`` — build the one-tenant stack over a caller-supplied
      :class:`~repro.storage.device.PersistentDevice` (always formatted
      fresh); ownership transfers, so close() closes the device.
    """
    if pool is not None:
        if device is not None:
            raise ValueError(
                "pass either pool= or device=, not both — a pool builds "
                "its own devices"
            )
        lease = pool.acquire(tag="open_checkpointer")
        return Checkpointer(lease.stack, lease)
    if capacity_bytes is None:
        raise TypeError(
            "open_checkpointer() missing required argument "
            "'capacity_bytes' (only a pool= injection can omit it)"
        )
    if tiers is True:
        tiers = TierPlan()
    spec = EngineSpec(
        capacity_bytes=capacity_bytes,
        num_concurrent=num_concurrent,
        writer_threads=writer_threads,
        chunk_size=chunk_size,
        num_chunks=num_chunks,
        backend=backend,
        path=path,
        observability=observability,
        stripe_devices=stripe_devices,
        stripe_size=stripe_size,
        tiers=tiers,
    )
    return Checkpointer(build_stack(spec, device=device))
