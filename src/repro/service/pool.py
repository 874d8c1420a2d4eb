"""Explicit engine-pool assembly — the ONE place a PCcheck stack is built.

:class:`EngineSpec` describes how one engine stack is assembled,
:func:`build_stack` performs the assembly (device opened or reopened by
:func:`_open_ssd`, which also serves :func:`open_existing_region`), and
:class:`EnginePool` owns a fixed fleet of such stacks with explicit
``acquire``/``release`` leasing, capacity accounting, and leak-checked
``close``.  Everything in ``src/`` that runs an orchestrator over a
staging pool over an engine (over tiers) gets it from
:func:`build_stack`: ``open_checkpointer`` (a one-tenant view over a
size-1 pool), :class:`repro.service.CheckpointService` (many tenants
over a shared pool), ``PCcheckStrategy``, the observability demo driver
and the crash sweep's workloads (each over its own injected device) —
``tests/service/test_wiring_surface.py`` holds that by construction.
A distributed rank is the same stack with ``rank=`` the coordinator's
binding (:class:`repro.core.distributed.DistributedRank` drives it).
Deliberately outside it are the sites that only ever have a bare engine
over a layout: the ``naive``/``checkfreq``/``gpm`` baselines,
``autotune.functional_tw_probe`` and the tier policy's warm-region
engine.

Pool semantics:

* Stacks are built lazily on first acquire (member ``i`` of an ``ssd``
  pool lives at ``{path}.e{i}`` when the pool has more than one engine,
  at ``path`` itself for the size-1 ``open_checkpointer`` case).
* A lease is exclusive: one holder drives one engine at a time, so the
  engine's N-concurrent-slot bound is the holder's to spend (the
  service spends it across its tenants, up to N tickets per seat).
* ``release`` drains the orchestrator and returns the stack to the idle
  list; a stack whose pipelines died on a crashed device is *retired*
  instead (closed, its pool seat freed for a rebuild) so a poisoned
  engine is never handed to the next tenant.
* ``close`` refuses while leases are outstanding, then closes every
  stack and returns a leak report — free-slot and DRAM-chunk accounting
  per engine — that the tests (and the service's own shutdown) assert
  is clean.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PCcheckConfig, validate_choice
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.orchestrator import PCcheckOrchestrator
from repro.core.recovery import RecoveredCheckpoint, try_recover
from repro.errors import (
    ConfigError,
    CorruptCheckpointError,
    EngineClosedError,
    LayoutError,
    ServiceError,
    ServiceSaturated,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.storage.device import PersistentDevice
from repro.storage.dram import DRAMBufferPool
from repro.storage.faults import CrashPointDevice
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import SECTOR_SIZE, FileBackedSSD, InMemorySSD
from repro.storage.striped import (
    STRIPE_HEADER_SIZE,
    StripedDevice,
    read_stripe_manifest,
)
from repro.storage.tiering import TieredDevice, TierPlan, TierPolicy

#: Valid ``backend=`` selectors for :class:`EngineSpec` (and therefore
#: :func:`repro.open_checkpointer` and the service CLI).
BACKENDS = ("ssd", "pmem", "faults")
#: Valid ``observability=`` levels: ``"off"`` (no device instrumentation,
#: no tracing), ``"metrics"`` (shared registry incl. devices), ``"full"``
#: (registry + lifecycle tracing).
OBSERVABILITY_LEVELS = ("off", "metrics", "full")


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to assemble one checkpoint engine stack.

    ``capacity_bytes`` is the largest checkpoint payload a tenant of this
    engine intends to write; the region is sized to ``(N + 1)`` slots of
    that payload plus metadata (Table 1's storage footprint).

    ``persist_bandwidth`` (bytes/second) throttles the simulated
    backends' durability barriers — the service tests use it to model a
    saturated or slow device; it is rejected for the real-file ``ssd``
    backend, whose speed is whatever the filesystem delivers.

    ``stripe_devices``/``stripe_size`` shard the region across N member
    files (``{path}.s0`` … ``.s{N-1}``) behind a
    :class:`~repro.storage.striped.StripedDevice`, so one checkpoint's
    persist bandwidth aggregates across devices; they are ``ssd``-only,
    as the simulated backends have no second spindle to escape to.  An
    ``ssd`` region's file(s) are always opened in the O_DIRECT mode of
    :class:`~repro.storage.ssd.FileBackedSSD`, so staged payloads skip
    the page cache.
    """

    capacity_bytes: int
    num_concurrent: int = 2
    writer_threads: int = 3
    chunk_size: Optional[int] = None
    num_chunks: int = 2
    backend: str = "ssd"
    path: Optional[str] = None
    observability: str = "metrics"
    persist_bandwidth: Optional[float] = None
    stripe_devices: int = 1
    stripe_size: int = 1 << 20
    #: Tiered storage: keep the commit path on the (hot) backend device
    #: and asynchronously demote committed checkpoints to a warm device
    #: (``{path}.warm`` beside a region file the stack opened itself, an
    #: in-memory SSD over an injected or simulated device) and a
    #: remote object store, per this :class:`~repro.storage.tiering.TierPlan`.
    tiers: Optional[TierPlan] = None

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(
                f"capacity must be positive, got {self.capacity_bytes}"
            )
        validate_choice("backend", self.backend, BACKENDS)
        validate_choice(
            "observability level", self.observability, OBSERVABILITY_LEVELS
        )
        if self.persist_bandwidth is not None:
            if self.backend == "ssd":
                raise ConfigError(
                    "persist_bandwidth only throttles the simulated "
                    "backends (pmem, faults), not backend='ssd'"
                )
            if self.persist_bandwidth <= 0:
                raise ConfigError(
                    f"persist bandwidth must be positive, "
                    f"got {self.persist_bandwidth}"
                )
        if self.stripe_devices < 1:
            raise ConfigError(
                f"stripe_devices must be >= 1, got {self.stripe_devices}"
            )
        if self.stripe_devices > 1 and self.backend != "ssd":
            raise ConfigError(
                "striping shards one region across real files; only "
                "backend='ssd' has files to stripe over"
            )
        if self.stripe_size <= 0 or self.stripe_size % SECTOR_SIZE:
            raise ConfigError(
                f"stripe_size must be a positive multiple of {SECTOR_SIZE}, "
                f"got {self.stripe_size}"
            )
        # Validate the Table 2 knobs eagerly (PCcheckConfig re-checks at
        # assembly time; failing here keeps errors at spec construction).
        self.pccheck_config()

    def pccheck_config(self) -> PCcheckConfig:
        """The validated engine configuration this spec describes."""
        return PCcheckConfig(
            num_concurrent=self.num_concurrent,
            writer_threads=self.writer_threads,
            chunk_size=self.chunk_size,
            num_chunks=self.num_chunks,
        )

    def validate_buildable(self) -> None:
        """Check the spec can build devices (no injected device given)."""
        if self.backend == "ssd" and not self.path:
            raise ConfigError("backend='ssd' requires a file path")

    def member_name(self, base: str, index: int, pool_size: int) -> str:
        """Distinct name per pool member (metric label isolation):
        ``base`` verbatim for a size-1 pool, suffixed for larger ones."""
        return base if pool_size <= 1 else f"{base}.e{index}"

    def member_path(self, index: int, pool_size: int) -> Optional[str]:
        """On-disk path of pool member ``index`` — ``path`` verbatim for
        a size-1 pool, so ``open_checkpointer`` reopens what it wrote."""
        if self.path is None:
            return None
        return self.member_name(self.path, index, pool_size)

    def write_align(self) -> int:
        """Alignment the built device will ask of write boundaries."""
        if self.backend != "ssd":
            return 1
        return self.stripe_size if self.stripe_devices > 1 else SECTOR_SIZE


def _file_size(path: str) -> int:
    """Bytes at ``path``; 0 when nothing is there (one ``stat``)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _open_ssd(
    path: str,
    capacity: Optional[int] = None,
    stripe_devices: Optional[int] = None,
    stripe_size: int = 0,
) -> Tuple[PersistentDevice, bool]:
    """Build or reopen the file-backed device of the region at ``path``:
    ``(device, existing)`` — the ONE place region files are opened.

    ``stripe_devices`` 1 is a plain file at ``path``, N > 1 a stripe set
    over ``{path}.s0`` … ``.s{N-1}``, ``None`` whatever is on disk: the
    plain file, else (probed only once ``path`` is not a file) as many
    members as member 0's manifest records.  Files already there are
    reopened at their own size — an existing region keeps its geometry;
    sizing the device below the file would amputate slots — a stripe set
    through ``StripedDevice.open``, which raises the typed
    :class:`~repro.errors.CorruptCheckpointError` for a missing, torn or
    reordered member.  Otherwise fresh files are sized so the device's
    logical capacity covers ``capacity`` (per stripe member: a manifest
    page plus a stripe-aligned share); with ``capacity`` ``None`` the
    region must exist (:class:`~repro.errors.LayoutError`).  Every file
    is opened ``unbuffered`` (O_DIRECT where the filesystem allows it).
    """
    if stripe_devices is None:
        stripe_devices = 1 if os.path.isfile(path) else 0
    plain = stripe_devices == 1
    size = _file_size(path if plain else f"{path}.s0")
    if not size and capacity is None:
        raise LayoutError(f"no checkpoint region at {path}")
    if plain:
        device = FileBackedSSD(
            path, capacity=max(capacity or 0, size), unbuffered=True
        )
        return device, size > 0
    members: List[FileBackedSSD] = []

    def add(index: int, member_capacity: int) -> None:
        members.append(FileBackedSSD(
            f"{path}.s{index}", capacity=member_capacity, unbuffered=True
        ))

    try:
        if not size:
            share = -(-capacity // stripe_devices)
            share = -(-share // stripe_size) * stripe_size
            for index in range(stripe_devices):
                add(index, STRIPE_HEADER_SIZE + share)
            return StripedDevice.create(members, stripe_size=stripe_size), False
        add(0, size)
        count = stripe_devices or read_stripe_manifest(members[0]).member_count
        for index in range(1, count):
            size = _file_size(f"{path}.s{index}")
            if not size:
                raise CorruptCheckpointError(
                    f"stripe member {path}.s{index} is missing or empty; "
                    f"the set was created with {count} members"
                )
            add(index, size)
        return StripedDevice.open(members), True
    except BaseException:
        for member in members:
            try:
                member.close()
            except OSError:
                pass  # already tearing down; the original error propagates
        raise


def open_existing_region(path: str) -> Tuple[PersistentDevice, DeviceLayout]:
    """Open a formatted on-disk region: ``(device, layout)``.

    The read path recovery tooling shares (``pccheck-repro inspect`` /
    ``recover-consistent``): :func:`_open_ssd` with the geometry taken
    from disk, so ``path`` may be a plain region file or the base path
    of a striped region.  The caller owns (and must close) the device;
    nothing there raises :class:`~repro.errors.LayoutError`.
    """
    device, _ = _open_ssd(path)
    try:
        return device, DeviceLayout.open(device)
    except BaseException:
        device.close()
        raise


@dataclass(eq=False, kw_only=True)
class EngineStack:
    """One assembled engine: device + layout + engine + orchestrator +
    staging DRAM pool, plus whatever the region held at open time."""

    device: PersistentDevice
    layout: DeviceLayout
    engine: CheckpointEngine
    orchestrator: PCcheckOrchestrator
    config: PCcheckConfig
    dram: DRAMBufferPool
    #: Checkpoint recovered from the region at open time, if any.
    recovered: Optional[RecoveredCheckpoint] = None
    observability: str = "metrics"
    #: Seat of this stack within its pool (0 for standalone stacks).
    index: int = 0
    #: Demotion policy when the spec asked for tiered storage.
    tiering: Optional[TierPolicy] = None
    #: Error swallowed on the release path (diagnostics only — the
    #: tenant already observed it through its checkpoint handles).
    release_error: Optional[BaseException] = field(default=None, init=False)

    @property
    def defunct(self) -> bool:
        """True when the stack must not serve another tenant (the
        pipelines died on a crashed device)."""
        return self.orchestrator.fatal_error is not None

    def leak_report(self) -> Dict[str, int]:
        """Slot/buffer accounting for this stack (exact at quiescence,
        when every slot is free except the one the committed checkpoint
        occupies — invariant 4)."""
        committed = self.engine.committed() is not None
        expected = self.layout.num_slots - (1 if committed else 0)
        free = self.engine.free_slots
        held = len(self.engine.held_slots)
        return {
            "index": self.index,
            "free_slots": free,
            "expected_free_slots": expected,
            "held_slots": held,
            "leaked_slots": max(0, expected - free - held),
            "dram_total": self.dram.total_chunks,
            "dram_free": self.dram.free_chunks,
            "leaked_buffers": self.dram.total_chunks - self.dram.free_chunks,
        }

    def stop(self) -> Dict[str, int]:
        """Stop every thread the stack runs — the demotion worker, the
        pipelines (drained first), the writer pool — and return the leak
        report, taken once they are quiescent (accounting on a live
        stack would race in-flight buffer releases).  The device stays
        open: the crash sweep reads its image after the run."""
        if self.tiering is not None:
            self.tiering.stop()
        self.orchestrator.close()
        return self.leak_report()

    def close(self) -> Dict[str, int]:
        """Tear the stack down — :meth:`stop`, then release the device —
        and return the leak report."""
        report = self.stop()
        self.device.close()
        return report


def _in_turn(*hooks):
    """The engine's one ``post_cas_hook`` out of a stack's claimants:
    ``None`` when there is none, a lone hook as is (no wrapper call on
    the commit path), else each in the order given."""
    hooks = [hook for hook in hooks if hook is not None]
    if len(hooks) <= 1:
        return hooks[0] if hooks else None

    def each(meta) -> None:
        for hook in hooks:
            hook(meta)

    return each


def build_stack(
    spec: EngineSpec,
    *,
    device: Optional[PersistentDevice] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer=None,
    index: int = 0,
    pool_size: int = 1,
    sanitize: Optional[bool] = None,
    rank=None,
) -> EngineStack:
    """Assemble one engine stack from ``spec``: device, layout, engine,
    orchestrator, and the colder tiers when the spec asks for them.

    With an injected ``device`` the region is always formatted fresh
    (the pool cannot know the device's history); without one, an
    existing ``ssd`` region is reopened with its on-disk geometry and
    its newest valid checkpoint recovered.  Whatever this opened is
    closed again if the stack does not come together.  ``sanitize`` is
    :class:`~repro.core.engine.CheckpointEngine`'s keyword, forwarded
    (the crash sweep's ``--no-sanitize``).  ``rank`` is a
    :meth:`~repro.core.distributed.DistributedCoordinator.binding`: the
    engine then registers each commit with the group and holds the
    superseded slot until the round settles (§4.1).
    """
    config = spec.pccheck_config()
    slot_size = spec.capacity_bytes + RECORD_SIZE
    # Size the device for the geometry format will pin (slots rounded to
    # the device's alignment), so formatting never outgrows the file.
    capacity = Geometry.aligned(
        config.num_slots, slot_size, spec.write_align()
    ).total_size
    if metrics is None:
        metrics = MetricsRegistry()
    if tracer is None:
        tracer = Tracer() if spec.observability == "full" else NULL_TRACER
    observed = spec.observability != "off"
    with ExitStack() as undo:
        existing = False
        # Path of the region file(s) this stack itself opens, if any.
        region_path: Optional[str] = None
        if device is None:
            if spec.backend == "ssd":
                spec.validate_buildable()
                region_path = spec.member_path(index, pool_size)
                device, existing = _open_ssd(
                    region_path, capacity,
                    spec.stripe_devices, spec.stripe_size,
                )
            elif spec.backend == "pmem":
                device = SimulatedPMEM(
                    capacity,
                    name=spec.member_name("pmem", index, pool_size),
                    persist_bandwidth=spec.persist_bandwidth,
                )
            else:
                # "faults": an in-memory SSD behind a crash-point wrapper
                # with op recording — callers inject crashes via the
                # device and tests sweep the op log.
                device = CrashPointDevice(
                    InMemorySSD(
                        capacity,
                        name=spec.member_name("mem-ssd", index, pool_size),
                        persist_bandwidth=spec.persist_bandwidth,
                    ),
                    record_ops=True,
                )
            undo.callback(device.close)
        if observed:
            device.attach_metrics(metrics)

        recovered: Optional[RecoveredCheckpoint] = None
        if existing:
            layout = DeviceLayout.open(device)
            recovered = try_recover(layout, metrics=metrics, tracer=tracer)
        else:
            layout = DeviceLayout.format(
                device, num_slots=config.num_slots, slot_size=slot_size
            )
        tiering: Optional[TierPolicy] = None
        if spec.tiers is not None:
            # Only now, with the hot region accepted, do the colder
            # tiers come into being: warm is a plain (buffered) file
            # beside the region file this stack opened, else (injected
            # or simulated hot device) an in-memory SSD; remote comes
            # from the plan.  The hot capacity always covers the warm
            # region (same slot count, headers no larger).
            if region_path is not None:
                warm: PersistentDevice = FileBackedSSD(
                    f"{region_path}.warm", capacity=device.capacity
                )
            else:
                warm = InMemorySSD(
                    device.capacity,
                    name=spec.member_name("warm-ssd", index, pool_size),
                )
            undo.callback(warm.close)
            remote = spec.tiers.build_remote(
                spec.member_name("remote", index, pool_size)
            )
            device = TieredDevice(device, warm, remote)
            if observed:
                device.attach_metrics(metrics)
            layout = DeviceLayout(device, layout.geometry)
            tiering = TierPolicy(
                layout, warm, remote, plan=spec.tiers,
                metrics=metrics if observed else None,
            )
            undo.callback(tiering.stop)
        engine = CheckpointEngine(
            layout,
            writer_threads=spec.writer_threads,
            recovered=recovered.meta if recovered else None,
            metrics=metrics,
            tracer=tracer,
            # A tiered rank demotes, then coordinates.
            post_cas_hook=_in_turn(
                tiering.on_commit if tiering is not None else None,
                rank.on_commit if rank is not None else None,
            ),
            slot_custodian=rank,
            sanitize=sanitize,
        )
        undo.callback(engine.close)
        if rank is not None:
            rank.bind(engine)
        dram = DRAMBufferPool(
            num_chunks=spec.num_chunks,
            chunk_size=config.effective_chunk_size(spec.capacity_bytes),
        )
        stack = EngineStack(
            device=device,
            layout=layout,
            engine=engine,
            orchestrator=PCcheckOrchestrator(engine, dram),
            config=config,
            dram=dram,
            recovered=recovered,
            observability=spec.observability,
            index=index,
            tiering=tiering,
        )
        undo.pop_all()
        return stack


class EngineLease:
    """Exclusive custody of one pooled engine stack.

    Obtained from :meth:`EnginePool.acquire`; hand it back with
    :meth:`release` (idempotent) or use it as a context manager.  The
    stack's components are reachable as attributes for the lease's
    lifetime; after release they belong to the next tenant.
    """

    def __init__(self, pool: "EnginePool", stack: EngineStack, tag: str) -> None:
        self._pool = pool
        self.stack = stack
        #: Diagnostic owner label ("tenant:alice", "open_checkpointer").
        self.tag = tag
        self._released = False

    # Component delegation.
    @property
    def device(self) -> PersistentDevice:
        return self.stack.device

    @property
    def layout(self) -> DeviceLayout:
        return self.stack.layout

    @property
    def engine(self) -> CheckpointEngine:
        return self.stack.engine

    @property
    def orchestrator(self) -> PCcheckOrchestrator:
        return self.stack.orchestrator

    @property
    def dram(self) -> DRAMBufferPool:
        return self.stack.dram

    @property
    def recovered(self) -> Optional[RecoveredCheckpoint]:
        return self.stack.recovered

    def release(self) -> None:
        """Drain in-flight checkpoints and return the engine to the pool."""
        self._pool.release(self)

    def __enter__(self) -> "EngineLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _pool_report(engines: List[Dict[str, int]], leased: int) -> dict:
    """Per-engine leak reports plus their pool-wide sums."""
    return {
        "engines": engines,
        "leased": leased,
        "leaked_slots": sum(e["leaked_slots"] for e in engines),
        "leaked_buffers": sum(e["leaked_buffers"] for e in engines),
    }


class EnginePool:
    """A shareable, leak-accounted pool of assembled checkpoint engines.

    One pool = one :class:`EngineSpec` times ``size`` seats.  All member
    stacks report into ONE metrics registry (``pool.metrics``) with
    per-device labels, so a single snapshot shows the whole fleet; the
    multi-tenant service layers tenant-labelled series on top.
    """

    def __init__(
        self,
        spec: EngineSpec,
        size: int = 1,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        name: str = "engine-pool",
        devices: Optional[Sequence[PersistentDevice]] = None,
    ) -> None:
        """``devices`` injects pre-built storage for the first
        ``len(devices)`` seats (the ``open_checkpointer(device=...)``
        path and device-fault tests); remaining seats build from the
        spec as usual."""
        if size < 1:
            raise ConfigError(f"engine pool needs at least one seat, got {size}")
        if devices is not None and len(devices) > size:
            raise ConfigError(
                f"{len(devices)} injected devices exceed pool size {size}"
            )
        self._spec = spec
        self._size = size
        self._name = name
        self._injected: Dict[int, PersistentDevice] = dict(
            enumerate(devices or ())
        )
        if len(self._injected) < size:
            # At least one seat must build its own device.
            spec.validate_buildable()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None:
            tracer = Tracer() if spec.observability == "full" else NULL_TRACER
        self._tracer = tracer
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        # Seats yet to be built; pop() hands out 0 first so size-1 pools
        # and path suffixes stay deterministic.
        self._unbuilt: List[int] = list(range(size))[::-1]
        self._idle: List[EngineStack] = []
        self._active: Dict[int, EngineLease] = {}
        self._closed = False
        self._last_leak_report: Optional[dict] = None
        #: Called (outside the lock) whenever a seat becomes available;
        #: an immutable tuple, replaced on add/remove, so ``release``
        #: iterates it without the lock.
        self._release_listeners: Tuple[Callable[[], None], ...] = ()
        #: Last error a release listener raised (diagnostics only).
        self.listener_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # introspection

    @property
    def spec(self) -> EngineSpec:
        return self._spec

    @property
    def name(self) -> str:
        return self._name

    @property
    def size(self) -> int:
        """Total seats (engines this pool can hold at once)."""
        return self._size

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry every member stack reports into."""
        return self._metrics

    @property
    def tracer(self):
        return self._tracer

    @property
    def built(self) -> int:
        """Stacks currently assembled (idle + leased)."""
        with self._lock:
            return len(self._idle) + len(self._active)

    @property
    def in_use(self) -> int:
        """Leases currently outstanding."""
        with self._lock:
            return len(self._active)

    @property
    def available(self) -> int:
        """Seats a new acquire could take without waiting."""
        with self._lock:
            return len(self._idle) + len(self._unbuilt)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def last_leak_report(self) -> Optional[dict]:
        """The accounting report computed by :meth:`close` (or ``None``
        while the pool is still open)."""
        return self._last_leak_report

    def active_tags(self) -> List[str]:
        """Owner labels of outstanding leases (diagnostics)."""
        with self._lock:
            return sorted(lease.tag for lease in self._active.values())

    # ------------------------------------------------------------------
    # leasing

    def _claim_locked(self) -> Optional[Tuple[Optional[EngineStack], Optional[int]]]:
        """Take an idle stack or an unbuilt seat: ``(stack, None)`` or
        ``(None, build_index)``, ``None`` when every seat is leased.
        Caller holds the pool lock."""
        if self._closed:
            raise EngineClosedError(f"engine pool {self._name!r} is closed")
        if self._idle:
            return self._idle.pop(0), None
        if self._unbuilt:
            return None, self._unbuilt.pop()
        return None

    def _lease(
        self, stack: Optional[EngineStack], build_index: Optional[int], tag: str
    ) -> EngineLease:
        """Turn a claimed seat into a lease, building its stack if the
        seat was unbuilt.  Caller does NOT hold the pool lock."""
        if stack is None:
            # Build outside the lock: assembly does real I/O and two
            # concurrent acquires hold distinct seat indices anyway.
            try:
                stack = build_stack(
                    self._spec,
                    device=self._injected.get(build_index),
                    metrics=self._metrics,
                    tracer=self._tracer,
                    index=build_index,
                    pool_size=self._size,
                )
            except BaseException:
                with self._available:
                    self._unbuilt.append(build_index)
                    self._available.notify()
                self._notify_seat_freed()
                raise
        lease = EngineLease(self, stack, tag)
        with self._available:
            self._active[stack.index] = lease
            leased = len(self._active)
            built = leased + len(self._idle)
        self._metrics.set_gauge(M.POOL_ENGINES_LEASED, leased)
        self._metrics.set_gauge(M.POOL_ENGINES_BUILT, built)
        return lease

    def acquire(
        self, *, timeout: Optional[float] = None, tag: str = "anonymous"
    ) -> EngineLease:
        """Lease an engine, building one if a seat is free.

        Blocks while every seat is leased; with a ``timeout``, raises
        :class:`~repro.errors.ServiceSaturated` once it expires — the
        pool-level backpressure signal admission control forwards to
        tenants.
        """
        start = time.monotonic()
        with self._available:
            while True:
                claim = self._claim_locked()
                if claim is not None:
                    break
                remaining = None
                if timeout is not None:
                    remaining = timeout - (time.monotonic() - start)
                    if remaining <= 0:
                        holders = ", ".join(
                            sorted(l.tag for l in self._active.values())
                        )
                        raise ServiceSaturated(
                            f"engine pool {self._name!r} saturated: all "
                            f"{self._size} engines leased "
                            f"(waited {timeout:g}s; holders: "
                            f"{holders or 'unknown'})",
                            reason="pool_exhausted",
                        )
                self._available.wait(remaining)
        lease = self._lease(*claim, tag)
        self._metrics.inc(
            M.POOL_ACQUIRE_WAIT_SECONDS, time.monotonic() - start
        )
        return lease

    def try_acquire(self, *, tag: str = "anonymous") -> Optional[EngineLease]:
        """Lease an engine without waiting: ``None`` when every seat is
        leased.

        The event-driven counterpart of :meth:`acquire` for callers that
        must not block on the pool (the service dispatcher): pair it
        with :meth:`add_release_listener` to learn when to try again.
        Like ``acquire`` it builds an unbuilt seat, and raises
        :class:`~repro.errors.EngineClosedError` on a closed pool.
        """
        with self._available:
            claim = self._claim_locked()
        if claim is None:
            return None
        return self._lease(*claim, tag)

    def add_release_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` whenever a seat becomes available again
        (a lease released by *any* holder, or a failed build handing its
        seat back).

        Listeners run on the releasing thread, outside the pool lock, so
        they may take their own locks; they must not block.  A listener
        that raises is ignored — ``release`` never refuses an engine.
        """
        with self._lock:
            self._release_listeners += (listener,)

    def remove_release_listener(self, listener: Callable[[], None]) -> None:
        with self._lock:
            self._release_listeners = tuple(
                fn for fn in self._release_listeners if fn != listener
            )

    def _notify_seat_freed(self) -> None:
        # Caller does NOT hold the pool lock; the tuple is replaced, never
        # mutated, so iterating the current one needs no lock either.
        for listener in self._release_listeners:
            try:
                listener()
            except Exception as exc:  # noqa: BLE001 - cannot wedge release
                self.listener_error = exc

    def release(self, lease: EngineLease) -> None:
        """Return a leased engine to the pool (idempotent).

        Drains the stack's in-flight checkpoints first so the next
        tenant inherits a quiescent engine.  A defunct stack (crashed
        device) is retired — closed, with its seat freed so a later
        acquire rebuilds a fresh engine over the same spec — instead of
        being recycled.
        """
        if lease._released:  # noqa: SLF001 - pool owns the lease lifecycle
            return
        lease._released = True  # noqa: SLF001
        stack = lease.stack
        # Failures were deliverable through the tenant's handles; a
        # release must never refuse to take the engine back.
        try:
            stack.orchestrator.drain(return_exceptions=True)
        except BaseException as exc:  # noqa: BLE001 - release is unconditional
            stack.release_error = exc
        # A drain that raises even in return_exceptions mode means the
        # stack cannot be quiesced — retire it like a defunct one.
        retire = stack.defunct or stack.release_error is not None
        with self._available:
            self._active.pop(stack.index, None)
            if retire:
                self._unbuilt.append(stack.index)
                self._injected.pop(stack.index, None)
            else:
                self._idle.append(stack)
            leased = len(self._active)
            built = leased + len(self._idle)
            self._available.notify()
        if retire:
            try:
                stack.close()
            except BaseException as exc:  # noqa: BLE001 - already-dead device
                stack.release_error = exc
        self._metrics.set_gauge(M.POOL_ENGINES_LEASED, leased)
        self._metrics.set_gauge(M.POOL_ENGINES_BUILT, built)
        self._notify_seat_freed()

    # ------------------------------------------------------------------
    # lifecycle

    def leak_report(self) -> dict:
        """Accounting across built stacks: slots and DRAM buffers that
        should be free but are not.  Exact at quiescence."""
        with self._lock:
            stacks = list(self._idle) + [
                lease.stack for lease in self._active.values()
            ]
            leased = len(self._active)
        return _pool_report([stack.leak_report() for stack in stacks], leased)

    def close(self) -> dict:
        """Close every stack and return the final leak report.

        Refuses (``ServiceError``) while leases are outstanding — a
        forced close would yank engines from under live tenants; release
        them first.  Idempotent: later calls return the same report.
        """
        with self._available:
            if self._closed:
                return self._last_leak_report or _pool_report([], 0)
            if self._active:
                tags = ", ".join(
                    sorted(lease.tag for lease in self._active.values())
                )
                raise ServiceError(
                    f"cannot close engine pool {self._name!r}: "
                    f"{len(self._active)} leases outstanding ({tags})"
                )
            self._closed = True
            stacks = list(self._idle)
            self._idle = []
            self._available.notify_all()
        engines = [stack.close() for stack in stacks]
        report = self._last_leak_report = _pool_report(engines, 0)
        self._metrics.set_gauge(M.POOL_ENGINES_LEASED, 0)
        self._metrics.set_gauge(M.POOL_ENGINES_BUILT, 0)
        return report

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
