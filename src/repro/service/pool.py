"""Engine-stack assembly and the engine pool — the ONE place a PCcheck
stack is built.

:func:`build_stack` assembles the stack an
:class:`~repro.service.stack.EngineSpec` describes (region files opened
or reopened by :func:`_open_ssd`, which also serves
:func:`open_existing_region`); :class:`EnginePool` holds a fleet of
stacks and the one map of their tickets.  Everything in
``src/`` that runs an orchestrator over a staging pool over an engine
(over tiers) gets it from :func:`build_stack` — ``open_checkpointer``,
:class:`repro.service.CheckpointService`, ``PCcheckStrategy``, the
observability demo driver and the crash sweep's workloads;
``tests/service/test_wiring_surface.py`` holds that by construction.  A
distributed rank is the same stack with ``rank=`` the coordinator's
binding.  Only sites that ever have just a bare engine over a layout
stay outside: the ``naive``/``checkfreq``/``gpm`` baselines,
``autotune.functional_tw_probe`` and the tier policy's warm engine.

Pool semantics.  Seats are built lazily (member ``i`` of an ``ssd``
pool lives at ``{path}.e{i}``, a size-1 pool's at ``path`` itself).  A
seat runs up to N = ``num_concurrent`` checkpoints at once (§3.1), so
it carries a ticket count in ``[0, N]``: :meth:`EnginePool.take` grants
a share without waiting, :meth:`EnginePool.acquire` blocks for a whole
seat.  The seat's last ticket back drains its stack; a stack whose
pipelines died on a crashed device is then retired (closed, its seat
rebuilt on a later grant), so a poisoned engine never serves again.
``close`` refuses while tickets are out, then returns a leak report —
free-slot and DRAM-chunk accounting per engine — that the tests and the
service's own shutdown assert is clean.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.engine import CheckpointEngine
from repro.core.layout import SUPERBLOCK_SIZE, DeviceLayout, Geometry
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
from repro.service.stack import EngineSpec, EngineStack
from repro.storage.pmem import SimulatedPMEM
from repro.storage.ssd import FileBackedSSD, InMemorySSD
from repro.storage.striped import (
    STRIPE_HEADER_SIZE,
    StripedDevice,
    read_stripe_manifest,
)
from repro.storage.tiering import TieredDevice, TierPolicy


def _file_size(path: str) -> int:
    """Bytes at ``path``; 0 when nothing is there (one ``stat``)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _formatted(device: PersistentDevice) -> bool:
    """False when the region's superblock sector is all zero: a file that
    was sized but never formatted (a process killed inside its first
    :meth:`~repro.core.layout.DeviceLayout.format`).  Anything else,
    a foreign superblock included, is left to ``DeviceLayout.open`` to
    accept or refuse."""
    raw = device.read(0, min(SUPERBLOCK_SIZE, device.capacity))
    return raw != bytes(len(raw))


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
    region must exist (:class:`~repro.errors.LayoutError`).  ``existing``
    is False for files whose superblock sector is still all zero
    (:func:`_formatted`), so the caller formats them.  Every file is
    opened ``unbuffered`` (O_DIRECT where the filesystem allows it).
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
        try:
            return device, size > 0 and _formatted(device)
        except BaseException:
            device.close()
            raise
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
        device = StripedDevice.open(members)
        return device, _formatted(device)
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


@dataclass(eq=False)
class EngineLease:
    """``tickets`` of a pooled ``stack``'s N concurrent checkpoints,
    given back by :meth:`release` (idempotent) or leaving a ``with``;
    ``tag`` names the holder in saturation and close errors."""

    pool: "EnginePool"
    stack: EngineStack
    tickets: int
    tag: str = "anonymous"

    def release(self) -> None:
        self.pool.release(self)

    def __enter__(self) -> "EngineLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class EnginePool:
    """``size`` lazily built stacks of one :class:`EngineSpec` and the
    one map of their tickets (see the module docstring).  Every member
    reports into ONE registry (``pool.metrics``) with per-device labels;
    the multi-tenant service layers tenant-labelled series on top."""

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
        ``len(devices)`` seats; the others build from the spec."""
        if size < 1:
            raise ConfigError(f"engine pool needs at least one seat, got {size}")
        if devices is not None and len(devices) > size:
            raise ConfigError(
                f"{len(devices)} injected devices exceed pool size {size}"
            )
        self._spec = spec
        self._name = name
        self._injected: Dict[int, PersistentDevice] = dict(
            enumerate(devices or ())
        )
        if len(self._injected) < size:
            spec.validate_buildable()  # at least one seat builds a device
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None:
            tracer = Tracer() if spec.observability == "full" else NULL_TRACER
        self._tracer = tracer
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: The seat map: each seat's stack (``None`` until built, and
        #: again once retired) and the tickets out on it, in ``[0, N]``.
        self._stacks: List[Optional[EngineStack]] = [None] * size
        self._tickets = [0] * size
        #: Seats being built or drained: they take no ticket.
        self._busy: Set[int] = set()
        self._leases: Set[EngineLease] = set()
        self._closed = False
        #: Replaced, never mutated, so ``release`` iterates it lock-free.
        self._listeners: Tuple[Callable[[], None], ...] = ()
        #: Last error a release listener raised (diagnostics only).
        self.listener_error: Optional[BaseException] = None
        self._g_leased = self._metrics.gauge(M.POOL_ENGINES_LEASED)
        self._g_built = self._metrics.gauge(M.POOL_ENGINES_BUILT)
        self._c_wait = self._metrics.counter(M.POOL_ACQUIRE_WAIT_SECONDS)

    @property
    def metrics(self) -> MetricsRegistry:  # every member stack's registry
        return self._metrics

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def size(self) -> int:
        """Seats in the pool."""
        return len(self._stacks)

    def _pick_locked(self, tickets: Optional[int]) -> Optional[int]:
        """The seat a grant of ``tickets`` (``None``: all of a seat's)
        goes to (see :meth:`take`).  A built seat's N is its engine's: a
        reopened region keeps the slots it was formatted with."""
        if self._closed:
            raise EngineClosedError(f"engine pool {self._name!r} is closed")
        unbuilt = shared = None
        for index, stack in enumerate(self._stacks):
            count = self._tickets[index]
            if index in self._busy:
                continue
            if stack is None:
                unbuilt = index if unbuilt is None else unbuilt
                continue
            n = stack.engine.max_concurrent
            if stack.defunct or count + (tickets or n) > n:
                continue
            if not count:
                return index
            if shared is None or count < self._tickets[shared]:
                shared = index
        return unbuilt if unbuilt is not None else shared

    def _lease_locked(
        self, index: int, tickets: Optional[int], tag: str
    ) -> Optional[EngineLease]:
        """Lease ``tickets`` on seat ``index``, or ``None`` if unbuilt."""
        stack = self._stacks[index]
        if stack is None:
            self._busy.add(index)  # until _build() leases it
            return None
        tickets = tickets or stack.engine.max_concurrent
        self._count_locked(index, tickets)
        lease = EngineLease(self, stack, tickets, tag)
        self._leases.add(lease)
        return lease

    def _count_locked(self, index: int, tickets: int) -> None:
        self._tickets[index] += tickets
        self._g_leased.set(sum(map(bool, self._tickets)))

    def _build(
        self, index: int, tickets: Optional[int], tag: str
    ) -> EngineLease:
        # Outside the lock: assembly does real I/O, and the busy seat is
        # this grant's alone.  A failed build hands the seat back.
        try:
            stack = build_stack(
                self._spec,
                device=self._injected.get(index),
                metrics=self._metrics,
                tracer=self._tracer,
                index=index,
                pool_size=len(self._stacks),
            )
        except BaseException:
            with self._lock:
                self._busy.discard(index)
                self._available.notify()
            self._notify_listeners()
            raise
        with self._lock:
            self._stacks[index] = stack
            self._busy.discard(index)
            self._g_built.set(sum(s is not None for s in self._stacks))
            return self._lease_locked(index, tickets, tag)

    def take(
        self, tickets: int = 1, *, tag: str = "anonymous"
    ) -> Optional[EngineLease]:
        """``tickets`` on one seat without waiting, or ``None``.

        A seat with no tickets out goes first — an idle built one, then
        an unbuilt one, built here — so an unsaturated pool gives each
        grant its own engine; then the live seat with the fewest tickets
        that has room.  A defunct seat, or one being built or drained,
        takes none.  Raises :class:`~repro.errors.EngineClosedError` on
        a closed pool.
        """
        if not 0 < tickets <= self._spec.num_concurrent:
            raise ConfigError(
                f"take() grants 1 to {self._spec.num_concurrent} tickets, "
                f"not {tickets}"
            )
        with self._lock:
            index = self._pick_locked(tickets)
            if index is None:
                return None
            lease = self._lease_locked(index, tickets, tag)
        return lease if lease is not None else self._build(index, tickets, tag)

    def acquire(
        self, *, timeout: Optional[float] = None, tag: str = "anonymous"
    ) -> EngineLease:
        """A whole seat — all its N tickets, so nobody shares it.

        Blocks until a seat is free of tickets; with a ``timeout``,
        raises :class:`~repro.errors.ServiceSaturated` once it expires —
        the pool-level backpressure signal admission forwards to tenants.
        """
        start = time.monotonic()
        with self._lock:
            while (index := self._pick_locked(None)) is None:
                remaining = None
                if timeout is not None:
                    remaining = timeout - (time.monotonic() - start)
                    if remaining <= 0:
                        raise ServiceSaturated(
                            f"engine pool {self._name!r} saturated: no seat "
                            f"free of tickets (waited {timeout:g}s; holders: "
                            f"{self._holders_locked()})",
                            reason="pool_exhausted",
                        )
                self._available.wait(remaining)
            lease = self._lease_locked(index, None, tag)
        if lease is None:
            lease = self._build(index, None, tag)
        self._c_wait.inc(time.monotonic() - start)
        return lease

    def _holders_locked(self) -> str:
        return ", ".join(sorted(lease.tag for lease in self._leases)) or "-"

    def release(self, lease: EngineLease) -> None:
        """Give ``lease``'s tickets back (idempotent).

        The seat's last ticket drains the stack — outside the lock, the
        seat busy — so the next holder inherits a quiescent engine.  A
        defunct stack, or one whose drain raised, is then retired —
        closed, its seat rebuilt by a later grant — instead of recycled.
        """
        stack, index = lease.stack, lease.stack.index
        with self._lock:
            if lease not in self._leases:
                return
            self._leases.remove(lease)
            self._count_locked(index, -lease.tickets)
            last = not self._tickets[index]
            if last:
                self._busy.add(index)
        if last:
            # Failures were deliverable through the holders' handles; a
            # release must never refuse to take the engine back.
            try:
                stack.orchestrator.drain(return_exceptions=True)
            except BaseException as exc:  # noqa: BLE001 - release is unconditional
                stack.release_error = exc
            retire = stack.defunct or stack.release_error is not None
            with self._lock:
                self._busy.discard(index)
                if retire:
                    self._stacks[index] = None
                    self._injected.pop(index, None)
                    self._g_built.set(sum(s is not None for s in self._stacks))
                self._available.notify()
            if retire:
                try:
                    stack.close()
                except BaseException as exc:  # noqa: BLE001 - already-dead device
                    stack.release_error = exc
        self._notify_listeners()

    def add_release_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` after every give-back — by *any* holder,
        or a failed build's — so a caller that must not block on the
        pool learns when to :meth:`take` again.  It runs on the
        releasing thread, outside the pool lock, and must not block;
        one that raises is ignored (``release`` never refuses)."""
        with self._lock:
            self._listeners += (listener,)

    def remove_release_listener(self, listener: Callable[[], None]) -> None:
        with self._lock:
            self._listeners = tuple(
                fn for fn in self._listeners if fn != listener
            )

    def _notify_listeners(self) -> None:
        for listener in self._listeners:
            try:
                listener()
            except Exception as exc:  # noqa: BLE001 - cannot wedge a release
                self.listener_error = exc

    def leak_report(self) -> dict:
        """Slots and DRAM buffers that should be free but are not, per
        built stack and summed, and ``leased``: the seats holding
        tickets.  Exact at quiescence, and after :meth:`close`."""
        with self._lock:
            stacks = [stack for stack in self._stacks if stack is not None]
            leased = sum(map(bool, self._tickets))
        engines = [stack.leak_report() for stack in stacks]
        return {
            "engines": engines,
            "leased": leased,
            "leaked_slots": sum(e["leaked_slots"] for e in engines),
            "leaked_buffers": sum(e["leaked_buffers"] for e in engines),
        }

    def close(self) -> dict:
        """Close every stack; return the final :meth:`leak_report`.

        Refuses (``ServiceError``) while tickets are out or a seat is
        built or drained — a forced close would yank engines from under
        live holders.  Idempotent.
        """
        with self._lock:
            if self._leases or self._busy:
                raise ServiceError(
                    f"cannot close engine pool {self._name!r}: "
                    f"{len(self._leases)} leases outstanding "
                    f"({self._holders_locked()})"
                )
            stacks = [] if self._closed else self._stacks
            self._closed = True
            self._available.notify_all()
        for stack in filter(None, stacks):
            stack.close()  # quiescent first: live accounting would race
        self._g_leased.set(0)
        self._g_built.set(0)
        return self.leak_report()

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
