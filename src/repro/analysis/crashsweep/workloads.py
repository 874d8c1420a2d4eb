"""Workloads the crash-consistency sweep drives.

Each workload runs a small but representative checkpointing scenario
against a fault-injecting device and keeps a *journal* of every
checkpoint whose commit returned before the crash — the durability
promises the crash is not allowed to break.  After the (possibly
injected) crash, :meth:`Workload.validate_recovery` restarts from the
durable image and asserts the §4.1 guarantee:

* every acknowledged checkpoint survives — recovery finds a checkpoint
  at least as new as the newest acknowledged step;
* the committed counter never regresses below an acknowledged counter;
* whatever is recovered is byte-exact (no torn/corrupt payload ever
  validates);
* resources are conserved on the failure path: the DRAM pool is whole
  again after the pipelines died, and a completed run returns every slot
  but the committed one to the free queue (engine invariant 4).

Every workload drives the stack :func:`repro.service.pool.build_stack`
assembles over the fault-injecting device (or the stripe set above it)
— the wiring ``open_checkpointer`` ships, in its order: format the hot
region, then wrap it in the tiers and re-bind the layout — so the
oracle judges the product, not a hand-built look-alike.  Whatever a run
assembled is stopped (pipelines drained, writer pools joined) before it
returns; the devices stay open for recovery to read.

A single-node :class:`Workload` is a **driver** over a **stack shape**,
and every driver goes over every shape with no new code.  The drivers
(:data:`DRIVERS`) are the ways a trainer checkpoints: ``engine``
(one-shot ``checkpoint()`` calls), ``streaming`` (interleaved tickets,
deterministic supersede), ``orchestrator`` (multi-chunk
checkpoints, ≥3 concurrent), ``one-chunk`` (the orchestrator with
payloads that fit one staging chunk) and
``one-chunk-streamed`` (the same path above the inline write bound,
whose payload reaches the writer pool in pieces).  The shapes
(:data:`STACKS`) are what it runs on: ``plain`` (the crash device
itself), ``striped`` (a 3-member stripe set with the crash device as
member 0) and ``tiered`` (async demotion to a warm SSD and a remote
store, power failing mid-demotion).  :data:`WORKLOADS` names the rows
the CLI sweeps: each driver over ``plain``, the one-shot driver over
``striped`` and ``tiered``, and two multi-rank workloads — ``distributed``
(ranks behind the rank-0 barrier, one rank's device crashing) and
``elastic`` (the same writing shards of one global state, recovered onto
smaller and larger worlds) — whose ranks are each a ``plain`` stack
built with ``rank=`` the coordinator's binding.
"""

from __future__ import annotations

import threading
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.distributed import DistributedCoordinator, DistributedRank
from repro.core.layout import DeviceLayout
from repro.core.orchestrator import INLINE_WRITE_MAX_BYTES
from repro.core.recovery import recover_consistent, try_recover
from repro.core.sharding import shard_payload, reassemble
from repro.core.snapshot import BytesSource
from repro.errors import (
    CorruptCheckpointError,
    CrashedDeviceError,
    DistributedError,
    EngineClosedError,
    LayoutError,
    NoCheckpointError,
    PCcheckError,
)
from repro.service.pool import EngineSpec, EngineStack, build_stack
from repro.storage.device import PersistentDevice
from repro.storage.faults import CrashPointDevice
from repro.storage.ssd import InMemorySSD
from repro.storage.striped import StripedDevice
from repro.storage.tiering import TieredDevice, TierPlan

if TYPE_CHECKING:
    from repro.analysis.crashsweep.harness import WorkloadSpec

#: Upper bound on waiting for a checkpoint handle after a crash; a hit
#: means the failure paths stopped terminating and is itself a violation.
HANDLE_WAIT_SECONDS: float = 30.0

#: Stripe size of the ``striped`` shape: small enough that a 576-byte
#: slot write shards across members (so torn stripes are reachable),
#: large enough that the sweep stays fast.
STRIPE_SIZE = 512


@dataclass
class RunJournal:
    """Everything a run promised (or leaked) before the crash."""

    #: Steps whose checkpoint committed and whose call returned.
    acked_steps: List[int] = field(default_factory=list)
    #: Engine counters of those commits (rank 0 in distributed runs).
    acked_counters: List[int] = field(default_factory=list)
    crashed: bool = False
    crash_error: Optional[str] = None
    #: Failure-path resource leaks the workload itself detected.
    violations: List[str] = field(default_factory=list)
    #: Every stack the run assembled, the one over the crash device
    #: first; the template stops them and reads their leak reports.
    stacks: List[EngineStack] = field(default_factory=list)
    #: Workload-specific extras (e.g. peer devices of a distributed run).
    aux: Dict[str, object] = field(default_factory=dict)

    def ack(self, step: int, counter: int) -> None:
        self.acked_steps.append(step)
        self.acked_counters.append(counter)

    def release(self) -> None:
        """Close the devices the stacks were built on, once recovery is
        done with them — a stripe set's fence threads go with it."""
        for stack in self.stacks:
            stack.device.close()


@dataclass
class RecoveryOutcome:
    """Post-crash recovery result plus any invariant violations."""

    recovered_step: Optional[int]
    source: str  #: "commit-record" | "slot-scan" | "distributed" | "none"
    violations: List[str]


def payload_for(step: int, capacity: int, rank: int = 0) -> bytes:
    """Deterministic per-(rank, step) payload with a step-varying length,
    so truncated or cross-slot reads can never pass validation."""
    pattern = f"r{rank:02d}s{step:06d};".encode()
    length = max(1, capacity - (step % 5))
    reps = length // len(pattern) + 1
    return (pattern * reps)[:length]


def _power_fail(device: CrashPointDevice, journal: RunJournal) -> None:
    """Whole-node power loss at the sweep point — or, for runs the
    schedule never interrupted, right after the run: every unpersisted
    byte on the crash device and on the peer/warm devices parked in
    ``journal.aux``, and every not-yet-visible remote blob, is gone
    before recovery looks."""
    if not device.inner.crashed:
        device.inner.crash()
    device.inner.recover()
    others = list(journal.aux.get("peer_devices", ()))
    if "warm_device" in journal.aux:
        others.append(journal.aux["warm_device"])
        journal.aux["remote_store"].power_fail()
    for other in others:
        other.crash()
        other.recover()


def _open_or_violation(
    opener, target, subject: str, journal: RunJournal, violations: List[str],
    acked: str = "acknowledged",
):
    """``opener(target)``, or ``None`` when that raises its typed error —
    legitimate only while nothing was acknowledged (the crash landed in
    format or stripe-set creation), a violation otherwise."""
    try:
        return opener(target)
    except (LayoutError, CorruptCheckpointError) as exc:
        # A stripe set's typed error names the member it tripped on.
        detail = f": {exc}" if isinstance(exc, CorruptCheckpointError) else ""
    if journal.acked_steps:
        violations.append(
            f"{subject} although steps {journal.acked_steps} were "
            f"{acked}{detail}"
        )
    return None


@dataclass(frozen=True)
class StackShape:
    """The stack a single-node driver checkpoints through, built over
    the crash device."""

    #: Members of the stripe set under the stack: member 0 is the crash
    #: device, the peers are healthy in-memory SSDs, so every manifest
    #: write, sharded payload write and per-member fence of member 0 is
    #: a crash point.  1: no stripe set.
    stripe_members: int = 1
    #: ``EngineSpec.tiers``: the policy asynchronously copies each
    #: commit to a warm in-memory SSD and a remote store.  Crash points
    #: land only on hot-tier ops — demotion traffic goes elsewhere — so
    #: the schedule is deterministic regardless of demotion timing.
    tiers: Optional[TierPlan] = None

    @property
    def region(self) -> str:
        """What "unopenable" violations call the crash device's region."""
        striped = "striped " if self.stripe_members > 1 else ""
        return f"{striped}{'hot ' if self.tiers else ''}region"

    def assemble(
        self,
        device: PersistentDevice,
        spec: WorkloadSpec,
        journal: RunJournal,
        rank=None,
    ) -> EngineStack:
        """What the run drives: the stripe set first, then the product's
        own wiring over it — what ``open_checkpointer(device=…)`` would
        lease, tiers included (``rank``: as one rank of a group).
        Devices recovery needs later go in ``journal.aux``."""
        if self.stripe_members > 1:
            peers = [
                InMemorySSD(spec.geometry().total_size, name=f"stripe-peer-{i}")
                for i in range(1, self.stripe_members)
            ]
            journal.aux["peer_devices"] = peers
            device = StripedDevice.create(
                [device, *peers], stripe_size=STRIPE_SIZE
            )
        engine_spec = EngineSpec(
            capacity_bytes=spec.payload_capacity,
            num_concurrent=spec.num_slots - 1,
            writer_threads=spec.writer_threads,
            chunk_size=spec.chunk_size,
            num_chunks=spec.num_chunks,
            observability="off",
            tiers=self.tiers,
        )
        stack = build_stack(
            engine_spec, device=device, sanitize=spec.sanitize, rank=rank
        )
        journal.stacks.append(stack)
        if stack.tiering is not None:
            journal.aux["warm_device"] = stack.device.warm
            journal.aux["remote_store"] = stack.device.remote
        return stack

    def reopen(
        self, device: CrashPointDevice, journal: RunJournal,
        violations: List[str],
    ) -> Optional[PersistentDevice]:
        """The device the restarted node finds its region on: the crash
        device, or the stripe set reassembled over it — ``None`` when
        that raised the typed error naming the member (never a short
        read); :func:`_open_or_violation` has judged it."""
        if self.stripe_members == 1:
            return device.inner
        return _open_or_violation(
            StripedDevice.open, [device.inner, *journal.aux["peer_devices"]],
            "stripe set unopenable after crash", journal, violations,
        )


#: The stack shapes a single-node driver checkpoints through.
STACKS: Dict[str, StackShape] = {
    "plain": StackShape(),
    "striped": StackShape(stripe_members=3),
    "tiered": StackShape(tiers=TierPlan(demote_threads=1)),
}


@dataclass(frozen=True)
class Driver:
    """How a workload checkpoints through what it assembled."""

    #: ``run(workload, driven, spec, journal)``: attempt ``spec.steps``
    #: checkpoints, acking into ``journal``; a
    #: :class:`~repro.errors.CrashedDeviceError` may simply escape.
    run: Callable[..., None]
    #: Slot count when the sweep sets none.
    slots: int = 3
    #: Stage every payload in ONE chunk (``chunk_size =
    #: payload_capacity``), so each checkpoint runs on one thread.
    one_chunk: bool = False
    #: Payload capacity when the sweep sets none.
    payload_capacity: int = 512


def _one_shot(workload, stack: EngineStack, spec, journal) -> None:
    """Sequential ``engine.checkpoint()`` calls — Listing 1 end to end."""
    for step in range(1, spec.steps + 1):
        result = stack.engine.checkpoint(
            workload.expected_payload(spec, step), step=step
        )
        if result.committed:
            journal.ack(step, result.counter)


def _streaming(workload, stack: EngineStack, spec, journal) -> None:
    """Interleaved ``begin``/``write_chunk``/``commit`` ticket pairs,
    committed in reverse order, so every odd ticket exercises the
    superseded path (Listing 1 lines 29–31) deterministically."""
    engine = stack.engine
    step = 1
    while step <= spec.steps:
        first = engine.begin(step=step)
        second = (
            engine.begin(step=step + 1) if step + 1 <= spec.steps else None
        )
        for ticket in (first, second):
            if ticket is None:
                continue
            payload = workload.expected_payload(spec, ticket.step)
            third = max(1, len(payload) // 3)
            for lo in range(0, len(payload), third):
                ticket.write_chunk(payload[lo : lo + third])
        # Reverse commit order: `first` holds the smaller counter
        # and gets superseded by `second`'s commit.
        for ticket in (second, first):
            if ticket is None:
                continue
            result = ticket.commit()
            if result.committed:
                journal.ack(ticket.step, result.counter)
        step += 2


def _pipelined(
    workload, stack: EngineStack, spec, journal, blocking: bool = False
) -> None:
    """The orchestrator: concurrent checkpoints over a shared DRAM pool,
    crash landing anywhere in any stage.

    Beyond the §4.1 check this is where the template's failure-path
    resource contract bites: once the checkpoints stopped the DRAM pool
    is whole again even when they died mid-persist.

    ``blocking``: every step but the last is the blocking
    ``checkpoint_sync`` (on the caller's thread),
    the last one ``checkpoint_async`` (one executor task); sequential
    steps keep the crash-point count deterministic.
    """
    orchestrator = stack.orchestrator
    handles = []
    try:
        for step in range(1, spec.steps + 1):
            source = BytesSource(workload.expected_payload(spec, step))
            if blocking and step < spec.steps:
                result = orchestrator.checkpoint_sync(source, step=step)
                if result.committed:
                    journal.ack(step, result.counter)
            else:
                handles.append(orchestrator.checkpoint_async(source, step=step))
    except (CrashedDeviceError, EngineClosedError) as exc:
        journal.crashed = True
        journal.crash_error = str(exc)
    for handle in handles:
        try:
            result = handle.wait(HANDLE_WAIT_SECONDS)
        except CrashedDeviceError as exc:
            journal.crashed = True
            journal.crash_error = str(exc)
        except (TimeoutError, FuturesTimeoutError):
            journal.violations.append(
                f"handle for step {handle.step} did not terminate "
                f"within {HANDLE_WAIT_SECONDS}s after the crash"
            )
        else:
            if result.committed:
                journal.ack(handle.step, result.counter)


#: The ways a single-node workload checkpoints.
DRIVERS: Dict[str, Driver] = {
    "engine": Driver(_one_shot),
    "streaming": Driver(_streaming),
    # The pipeline must host ≥3 concurrent checkpoints (N = slots − 1).
    "orchestrator": Driver(_pipelined, slots=4),
    "one-chunk": Driver(partial(_pipelined, blocking=True), one_chunk=True),
    # Above the inline bound a one-chunk payload streams to the writer
    # pool piece by piece, so crashes land between its pieces.
    "one-chunk-streamed": Driver(
        partial(_pipelined, blocking=True), one_chunk=True,
        payload_capacity=INLINE_WRITE_MAX_BYTES + 1024,
    ),
}


class Workload:
    """A driver over a stack shape — the single-node sweep workload, and
    the template the multi-rank ones refine.

    :meth:`run` assembles, drives, then stops everything it assembled
    and reads the leak reports; :meth:`validate_recovery` judges the
    durable image against the run's journal.
    """

    #: Writer world size when the sweep sets none.
    default_world = 2

    def __init__(
        self, driver: Driver, stack: StackShape = STACKS["plain"]
    ) -> None:
        self.driver = driver
        self.stack = stack

    @property
    def default_slots(self) -> int:
        """Slot count when the sweep sets none: the driver's."""
        return self.driver.slots

    @property
    def default_payload(self) -> int:
        """Payload capacity when the sweep sets none: the driver's."""
        return self.driver.payload_capacity

    def assemble(
        self, device: PersistentDevice, spec: WorkloadSpec, journal: RunJournal
    ):
        """The stack shape over ``device``; one staging chunk holds the
        whole payload for a one-chunk run."""
        if self.driver.one_chunk:
            spec = replace(spec, chunk_size=spec.payload_capacity)
        return self.stack.assemble(device, spec, journal)

    def run(self, device: CrashPointDevice, spec: WorkloadSpec) -> RunJournal:
        journal = RunJournal()
        try:
            driven = self.assemble(device, spec, journal)
            self.driver.run(self, driven, spec, journal)
        except CrashedDeviceError as exc:
            journal.crashed = True
            journal.crash_error = str(exc)
        finally:
            reports = []
            for stack in journal.stacks:
                if stack.tiering is not None:
                    # Settle the demotion queue (failed demotions
                    # against a crashed hot tier drain fast) before
                    # recovery looks at the tiers.
                    stack.tiering.drain(timeout=5.0)
                reports.append(stack.stop())
        for index, report in enumerate(reports):
            # The failure-path contract: the staging pool is whole again
            # even when checkpoints died mid-persist.
            if report["leaked_buffers"]:
                journal.violations.append(
                    f"DRAM buffer leak on stack {index}: "
                    f"{report['dram_free']} of {report['dram_total']} chunks "
                    "free after the pipelines stopped"
                )
            if journal.crashed and index == 0:
                continue  # dangling tickets are legitimate after power loss
            # Invariant 4 and §4.1 slot custody at quiescence: every
            # round settled — completed (recycle) or failed (reclaim) —
            # so a healthy stack holds back exactly its committed slot.
            if report["free_slots"] != report["expected_free_slots"]:
                journal.violations.append(
                    f"slot leak on stack {index}: {report['free_slots']} free "
                    f"and {report['held_slots']} still held of "
                    f"{spec.num_slots} after the run settled (expected "
                    f"{report['expected_free_slots']} free)"
                )
        return journal

    def expected_payload(
        self, spec: WorkloadSpec, step: int, rank: int = 0
    ) -> bytes:
        return payload_for(step, spec.payload_capacity, rank=rank)

    # ------------------------------------------------------------------
    # §4.1 validation

    def validate_recovery(
        self, device: CrashPointDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> RecoveryOutcome:
        """Whole-node power loss, then restart: reopen the region, check
        it against the journal (ack/counter monotonicity, byte-exact
        payload) and, on a tiered stack, check the tier walk too."""
        violations = list(journal.violations)
        _power_fail(device, journal)
        hot = self.stack.reopen(device, journal, violations)
        layout = None if hot is None else _open_or_violation(
            DeviceLayout.open, hot,
            f"{self.stack.region} unopenable after crash", journal, violations,
        )
        # The hot region alone must satisfy §4.1 — the commit record
        # never depends on the (asynchronous, lossy) warm or remote copies.
        recovered = None if layout is None else try_recover(layout)
        if layout is not None and journal.acked_steps:
            newest = max(journal.acked_steps)
            if recovered is None:
                violations.append(
                    f"acknowledged step {newest} lost: nothing recovered"
                )
            else:
                if recovered.meta.step < newest:
                    violations.append(
                        f"recovery regressed to step {recovered.meta.step} "
                        f"< acknowledged {newest}"
                    )
                if recovered.meta.counter < max(journal.acked_counters):
                    violations.append(
                        f"committed counter regressed to "
                        f"{recovered.meta.counter} < acknowledged "
                        f"{max(journal.acked_counters)}"
                    )
        step = None
        if recovered is not None:
            step = recovered.meta.step
            if recovered.payload != self.expected_payload(spec, step):
                violations.append(
                    f"recovered payload for step {step} is corrupt "
                    f"({len(recovered.payload)} bytes, CRC passed but "
                    "content differs from what the workload wrote)"
                )
        # A crash inside the hot region's format left no colder tiers to
        # walk: ``build_stack`` brings them into being only after it.
        if hot is not None and "warm_device" in journal.aux:
            self._check_tier_walk(hot, spec, journal, step, violations)
        return RecoveryOutcome(
            step, recovered.source if recovered else "none", violations
        )

    def _check_tier_walk(
        self, hot: PersistentDevice, spec: WorkloadSpec, journal: RunJournal,
        hot_step: Optional[int], violations: List[str],
    ) -> None:
        """:func:`~repro.core.recovery.recover` over the whole tiered
        stack agrees byte-exactly with the hot region, picks the hot copy
        while it is valid, and keeps working with the remote tier
        completely unavailable (power loss has already dropped the
        remote store's acked-but-invisible blobs)."""
        remote = journal.aux["remote_store"]
        tiers = TieredDevice(hot, journal.aux["warm_device"], remote)
        for label, remote_dark in (("remote dark", True), ("all tiers", False)):
            if remote_dark:
                remote.fail()
            try:
                walked = try_recover(tiers)
            finally:
                if remote_dark:
                    remote.restore()
            if walked is None:
                if hot_step is not None:
                    violations.append(
                        f"tier walk ({label}) found nothing although the "
                        f"hot tier recovered step {hot_step}"
                    )
                continue
            if walked.payload != self.expected_payload(
                spec, walked.meta.step
            ):
                violations.append(
                    f"tier walk ({label}) payload corrupt at step "
                    f"{walked.meta.step}"
                )
            if hot_step is None:
                continue
            if walked.meta.step < hot_step:
                violations.append(
                    f"tier walk ({label}) regressed to step "
                    f"{walked.meta.step} < hot-tier {hot_step}"
                )
            if not walked.source.startswith("hot:"):
                violations.append(
                    f"tier walk ({label}) recovered from {walked.source} "
                    "although the hot tier holds a valid checkpoint"
                )


def _all_ranks(
    workload, ranks: List[DistributedRank], spec, journal
) -> None:
    """Every rank's ``checkpoint()`` of each step on its own thread; a
    step is acked once every rank returned."""
    try:
        for step in range(1, spec.steps + 1):
            results: List[Optional[object]] = [None] * spec.world_size
            errors: List[BaseException] = []

            def one_rank(rank: DistributedRank, step: int = step) -> None:
                try:
                    results[rank.rank] = rank.checkpoint(
                        workload.expected_payload(spec, step, rank=rank.rank),
                        step=step,
                    )
                except (CrashedDeviceError, DistributedError) as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=one_rank, args=(rank,))
                for rank in ranks
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors or any(result is None for result in results):
                journal.crashed = True
                journal.crash_error = (
                    str(errors[0]) if errors else "rank lost"
                )
                break
            journal.ack(step, results[0].counter)
    finally:
        # Joins the timeout watcher, so with the rank threads joined
        # too every round has settled and its handler — recycle on
        # completion, reclaim on failure — has run before the
        # template reads the peers' leak reports.
        ranks[0].coordinator.close()


class DistributedWorkload(Workload):
    """Multi-rank checkpointing behind the rank-0 barrier; the sweep
    crashes rank 0's device, peers keep healthy devices.

    An acknowledged step here means *every* rank's checkpoint returned —
    the globally consistent property recovery must honour via
    :func:`repro.core.recovery.recover_consistent`.
    """

    def __init__(self) -> None:
        super().__init__(Driver(_all_ranks))

    def assemble(
        self, device: PersistentDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> List[DistributedRank]:
        peers = [
            InMemorySSD(spec.geometry().total_size, name=f"peer-{rank}")
            for rank in range(1, spec.world_size)
        ]
        journal.aux["peer_devices"] = peers
        coordinator = DistributedCoordinator(
            spec.world_size, timeout=spec.barrier_timeout
        )
        return [
            DistributedRank(
                rank,
                self.stack.assemble(
                    rank_device, spec, journal, rank=coordinator.binding(rank)
                ),
                coordinator,
            )
            for rank, rank_device in enumerate([device, *peers])
        ]

    def validate_recovery(
        self, device: CrashPointDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> RecoveryOutcome:
        violations = list(journal.violations)
        _power_fail(device, journal)
        layouts = []
        for dev in [device.inner, *journal.aux.get("peer_devices", [])]:
            layout = _open_or_violation(
                DeviceLayout.open, dev, f"rank device {dev.name} unopenable",
                journal, violations, acked="fully acknowledged",
            )
            if layout is None:
                return RecoveryOutcome(None, "none", violations)
            layouts.append(layout)
        try:
            consistent = recover_consistent(layouts)
        except NoCheckpointError:
            if journal.acked_steps:
                violations.append(
                    f"globally acknowledged step {max(journal.acked_steps)} "
                    "lost: no consistent checkpoint across ranks"
                )
            return RecoveryOutcome(None, "none", violations)
        if journal.acked_steps and consistent.step < max(journal.acked_steps):
            violations.append(
                f"consistent recovery regressed to step {consistent.step} "
                f"< acknowledged {max(journal.acked_steps)}"
            )
        for rank, payload in enumerate(consistent.payloads):
            if payload != self.expected_payload(
                spec, consistent.step, rank=rank
            ):
                violations.append(
                    f"rank {rank} payload corrupt at step {consistent.step}"
                )
        return RecoveryOutcome(consistent.step, "distributed", violations)


class ElasticShardedWorkload(DistributedWorkload):
    """The distributed workload writing shards of one global state, with
    elastic recovery onto different world sizes.

    Every rank persists its :func:`~repro.core.sharding.shard_payload`
    shard of a shared per-step state.  Recovery is validated three
    ways: the writer-world recovery must match the shards bit-exactly
    (the inherited check), and for each world size in
    ``spec.elastic_readers`` the re-partitioned recovery
    (:func:`~repro.core.recovery.recover_consistent` with
    ``world_size``) must reassemble to the *bit-identical* global state
    — ROADMAP item 4's acceptance bar, swept across every crash point.
    """

    default_world = 4

    def global_state(self, spec: WorkloadSpec, step: int) -> bytes:
        """Deterministic per-step global state with a step-varying
        length, so truncated or cross-slot reads can never validate.
        Sized so every shard (piece + header) fits the slot capacity."""
        pattern = f"es{step:06d};".encode()
        per_rank = max(1, spec.payload_capacity - 64)
        length = max(spec.world_size, spec.world_size * per_rank - (step % 5))
        reps = length // len(pattern) + 1
        return (pattern * reps)[:length]

    def expected_payload(
        self, spec: WorkloadSpec, step: int, rank: int = 0
    ) -> bytes:
        return shard_payload(
            self.global_state(spec, step), spec.world_size
        )[rank]

    def validate_recovery(
        self, device: CrashPointDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> RecoveryOutcome:
        outcome = super().validate_recovery(device, spec, journal)
        if outcome.recovered_step is None:
            return outcome
        violations = outcome.violations
        peers = journal.aux.get("peer_devices", [])
        layouts = [
            DeviceLayout.open(dev) for dev in [device.inner, *peers]
        ]
        expected_state = self.global_state(spec, outcome.recovered_step)
        for readers in spec.elastic_readers:
            try:
                resharded = recover_consistent(layouts, world_size=readers)
                reassembled = reassemble(resharded.payloads)
            except PCcheckError as exc:
                violations.append(
                    f"elastic recovery of step {outcome.recovered_step} "
                    f"onto {readers} ranks failed: {exc}"
                )
                continue
            if resharded.step != outcome.recovered_step:
                violations.append(
                    f"elastic recovery onto {readers} ranks chose step "
                    f"{resharded.step}, the {spec.world_size}-rank "
                    f"recovery chose {outcome.recovered_step}"
                )
            elif len(resharded.payloads) != readers:
                violations.append(
                    f"elastic recovery onto {readers} ranks returned "
                    f"{len(resharded.payloads)} payloads"
                )
            elif reassembled != expected_state:
                violations.append(
                    f"elastic recovery onto {readers} ranks is not "
                    f"bit-identical at step {resharded.step} "
                    f"({len(reassembled)} vs {len(expected_state)} bytes)"
                )
        return outcome


#: The rows the CLI sweeps: every driver over the plain stack, the
#: one-shot driver over the other two shapes, and the multi-rank pair.
#: Any other composition is ``Workload(DRIVERS[d], STACKS[s])``.
WORKLOADS: Dict[str, Workload] = {
    **{name: Workload(driver) for name, driver in DRIVERS.items()},
    "striped": Workload(DRIVERS["engine"], STACKS["striped"]),
    "tiered": Workload(DRIVERS["engine"], STACKS["tiered"]),
    "distributed": DistributedWorkload(),
    "elastic": ElasticShardedWorkload(),
}
