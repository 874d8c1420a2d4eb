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

Every single-node workload drives the stack
:func:`repro.service.pool.build_stack` assembles over the fault-injecting
device (or the stripe set above it) — the wiring ``open_checkpointer``
ships, in its order: format the hot region, then wrap it in the tiers
and re-bind the layout — so the oracle judges the product, not a
hand-built look-alike.  The multi-rank workloads drive one such stack
per rank, built with ``rank=`` the coordinator's binding.  Whatever a
run assembled is stopped (pipelines drained, writer pools joined) before
it returns; the devices stay open for recovery to read.

Eight workloads cover the stack bottom-up (details on each class):
``engine`` (one-shot ``checkpoint()`` calls), ``streaming`` (interleaved
tickets, deterministic supersede), ``orchestrator`` (the capture/persist
pipeline, ≥3 concurrent), ``one-chunk`` (the orchestrator's one-thread
path for payloads that fit one staging chunk), ``distributed``
(multi-rank behind the rank-0 barrier, one rank's device crashing),
``elastic`` (the same writing shards of one global state, recovered
onto smaller and larger worlds),
``striped`` (a 3-member stripe set with the crash device as member 0)
and ``tiered`` (async demotion to a warm SSD and a remote store, power
failing mid-demotion).
"""

from __future__ import annotations

import threading
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.distributed import DistributedCoordinator, DistributedRank
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
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

#: Upper bound on waiting for a checkpoint handle after a crash; a hit
#: means the failure paths stopped terminating and is itself a violation.
HANDLE_WAIT_SECONDS: float = 30.0


@dataclass(frozen=True)
class WorkloadSpec:
    """Static parameters of one sweep's workload runs."""

    steps: int = 3
    num_slots: int = 3
    payload_capacity: int = 512
    writer_threads: int = 2
    chunk_size: int = 128
    num_chunks: int = 2
    sanitize: bool = True
    world_size: int = 2
    barrier_timeout: float = 0.25
    #: Reader worlds the elastic workload re-partitions recovery onto.
    elastic_readers: tuple = (2, 8)

    @property
    def slot_size(self) -> int:
        return self.payload_capacity + RECORD_SIZE

    def geometry(self) -> Geometry:
        return Geometry(num_slots=self.num_slots, slot_size=self.slot_size)


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


class Workload:
    """Base: single-device workloads share journal-vs-recovery checking."""

    name = "abstract"
    description = ""
    #: What "unopenable" violations call the region on the crash device.
    region = "region"
    #: ``EngineSpec.tiers`` of the stack :meth:`assemble` builds.
    tiers: Optional[TierPlan] = None

    def assemble(
        self,
        device: PersistentDevice,
        spec: WorkloadSpec,
        journal: RunJournal,
        rank=None,
    ):
        """What the run drives: the product's own wiring over the
        sweep's device — what ``open_checkpointer(device=…)`` would
        lease (``rank``: as one rank of a group).  Devices recovery
        needs later go in ``journal.aux``."""
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

    def drive(self, driven, spec: WorkloadSpec, journal: RunJournal) -> None:
        """Checkpoint through what :meth:`assemble` returned, acking
        into ``journal``; a :class:`~repro.errors.CrashedDeviceError`
        may simply escape."""
        raise NotImplementedError

    def run(self, device: CrashPointDevice, spec: WorkloadSpec) -> RunJournal:
        journal = RunJournal()
        try:
            self.drive(self.assemble(device, spec, journal), spec, journal)
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
            # even when the persist stages died mid-checkpoint.
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
        violations = list(journal.violations)
        _power_fail(device, journal)
        layout = _open_or_violation(
            DeviceLayout.open, device.inner,
            f"{self.region} unopenable after crash", journal, violations,
        )
        return self._recovery_from_layout(layout, spec, journal, violations)

    def _recovery_from_layout(
        self,
        layout: Optional[DeviceLayout],
        spec: WorkloadSpec,
        journal: RunJournal,
        violations: List[str],
    ) -> RecoveryOutcome:
        """Shared tail of §4.1 validation once a layout opened (``None``:
        it did not, :func:`_open_or_violation` has said so): recover,
        check ack/counter monotonicity, check the payload byte-exactly."""
        if layout is None:
            return RecoveryOutcome(None, "none", violations)
        recovered = try_recover(layout)
        if journal.acked_steps:
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
        if recovered is None:
            return RecoveryOutcome(None, "none", violations)
        expected = self.expected_payload(spec, recovered.meta.step)
        if recovered.payload != expected:
            violations.append(
                f"recovered payload for step {recovered.meta.step} is "
                f"corrupt ({len(recovered.payload)} bytes, CRC passed but "
                "content differs from what the workload wrote)"
            )
        return RecoveryOutcome(recovered.meta.step, recovered.source, violations)


class EngineOneShotWorkload(Workload):
    """Sequential ``engine.checkpoint()`` calls — Listing 1 end to end.

    Subclasses put a different device stack under the same engine by
    overriding :meth:`assemble` or setting ``tiers`` (and
    ``validate_recovery`` to match).
    """

    name = "engine"
    description = "one-shot checkpoint() calls on the bare engine"

    def drive(
        self, stack: EngineStack, spec: WorkloadSpec, journal: RunJournal
    ) -> None:
        for step in range(1, spec.steps + 1):
            result = stack.engine.checkpoint(
                self.expected_payload(spec, step), step=step
            )
            if result.committed:
                journal.ack(step, result.counter)


class StreamingTicketWorkload(Workload):
    """Interleaved ``begin``/``write_chunk``/``commit`` ticket pairs.

    Commits each pair in reverse order, so every odd ticket exercises the
    superseded path (Listing 1 lines 29–31) deterministically.
    """

    name = "streaming"
    description = "interleaved streaming tickets, deterministic supersede"

    def drive(
        self, stack: EngineStack, spec: WorkloadSpec, journal: RunJournal
    ) -> None:
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
                payload = self.expected_payload(spec, ticket.step)
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


class OrchestratorWorkload(Workload):
    """The full pipeline: concurrent capture/persist sessions over a
    shared DRAM pool, crash landing anywhere in any stage.

    Beyond the §4.1 check this is where the template's failure-path
    resource contract bites: once the pipelines stopped the DRAM pool is
    whole again even when the persist stages died mid-checkpoint.
    """

    name = "orchestrator"
    description = "concurrent capture/persist pipelines over a DRAM pool"

    def drive(
        self, stack: EngineStack, spec: WorkloadSpec, journal: RunJournal
    ) -> None:
        handles = []
        try:
            for step in range(1, spec.steps + 1):
                source = BytesSource(self.expected_payload(spec, step))
                handle = self.request(stack, source, step, spec, journal)
                if handle is not None:
                    handles.append(handle)
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

    def request(
        self, stack: EngineStack, source, step: int, spec: WorkloadSpec,
        journal: RunJournal,
    ):
        """Issue one step's checkpoint; returns the handle to await, or
        ``None`` when the step already settled (and was acked)."""
        return stack.orchestrator.checkpoint_async(source, step=step)


class OneChunkOrchestratorWorkload(OrchestratorWorkload):
    """The orchestrator row with every payload in ONE staging chunk, so
    each checkpoint runs on one thread: the blocking ``checkpoint_sync``
    on the caller's thread for every step but the last, which goes
    through ``checkpoint_async`` (one executor task).  Sequential steps
    keep the crash-point count deterministic."""

    name = "one-chunk"
    description = "one-chunk checkpoints, capture to commit on one thread"

    def assemble(self, device, spec, journal, rank=None):
        one_chunk = replace(spec, chunk_size=spec.payload_capacity)
        return super().assemble(device, one_chunk, journal, rank=rank)

    def request(self, stack, source, step, spec, journal):
        if step == spec.steps:
            return super().request(stack, source, step, spec, journal)
        result = stack.orchestrator.checkpoint_sync(source, step=step)
        if result.committed:
            journal.ack(step, result.counter)
        return None


class DistributedWorkload(Workload):
    """Multi-rank checkpointing behind the rank-0 barrier; the sweep
    crashes rank 0's device, peers keep healthy devices.

    An acknowledged step here means *every* rank's checkpoint returned —
    the globally consistent property recovery must honour via
    :func:`repro.core.recovery.recover_consistent`.
    """

    name = "distributed"
    description = "multi-rank engines behind the rank-0 barrier"

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
        ranks = []
        for rank, rank_device in enumerate([device, *peers]):
            stack = super().assemble(
                rank_device, spec, journal, rank=coordinator.binding(rank)
            )
            ranks.append(DistributedRank(rank, stack, coordinator))
        return ranks

    def drive(
        self,
        ranks: List[DistributedRank],
        spec: WorkloadSpec,
        journal: RunJournal,
    ) -> None:
        try:
            for step in range(1, spec.steps + 1):
                results: List[Optional[object]] = [None] * spec.world_size
                errors: List[BaseException] = []

                def one_rank(rank: DistributedRank, step: int = step) -> None:
                    try:
                        results[rank.rank] = rank.checkpoint(
                            self.expected_payload(spec, step, rank=rank.rank),
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

    name = "elastic"
    description = (
        "sharded global state; recovery re-partitioned onto other worlds"
    )

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


class StripedEngineWorkload(EngineOneShotWorkload):
    """One-shot checkpoints on a striped device; member 0 takes the crash.

    The stack is built over a :class:`~repro.storage.striped.StripedDevice`
    whose member 0 is the sweep's fault-injecting device and whose peers
    are healthy in-memory SSDs — so every stripe-manifest write, every
    sharded payload write, and every per-member fence of member 0 is a
    crash point.  Validation models whole-node power loss (all members
    crash and restart), reassembles the stripe set, and demands the usual
    §4.1 guarantees *plus* the stripe-specific one: a torn or unpersisted
    manifest surfaces as the typed
    :class:`~repro.errors.CorruptCheckpointError`, never as a silently
    short or scrambled payload.
    """

    name = "striped"
    description = (
        "one-shot checkpoints striped over 3 members; member 0 crashes"
    )

    #: Stripe geometry: small enough that a 576-byte slot write shards
    #: across members (so torn stripes are reachable), large enough that
    #: the sweep stays fast.
    stripe_members = 3
    stripe_size = 512

    def assemble(
        self, device: PersistentDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> EngineStack:
        peers = [
            InMemorySSD(spec.geometry().total_size, name=f"stripe-peer-{i}")
            for i in range(1, self.stripe_members)
        ]
        journal.aux["peer_devices"] = peers
        striped = StripedDevice.create(
            [device, *peers], stripe_size=self.stripe_size
        )
        return super().assemble(striped, spec, journal)

    def validate_recovery(
        self, device: CrashPointDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> RecoveryOutcome:
        violations = list(journal.violations)
        _power_fail(device, journal)
        # The node restarts and reassembles the stripe set; a set that
        # does not reassemble raises a typed error naming the member —
        # never a short read.
        striped = _open_or_violation(
            StripedDevice.open, [device.inner, *journal.aux["peer_devices"]],
            "stripe set unopenable after crash", journal, violations,
        )
        layout = striped and _open_or_violation(
            DeviceLayout.open, striped,
            "striped region unopenable after crash", journal, violations,
        )
        return self._recovery_from_layout(layout, spec, journal, violations)


class TieredEngineWorkload(EngineOneShotWorkload):
    """One-shot checkpoints with the tier-demotion hook live; the hot
    device takes the crash while demotions are in flight.

    The stack is the builder's ``EngineSpec(tiers=TierPlan(…))`` product
    over the sweep's fault-injecting device as the hot tier: its
    :class:`~repro.storage.tiering.TierPolicy` asynchronously copies each
    committed checkpoint to a warm in-memory SSD and a
    :class:`~repro.storage.remote.RemoteStore`.  Crash points land only
    on hot-tier writes/persists — demotion traffic goes to the warm and
    remote devices, so the schedule is deterministic regardless of
    demotion timing.  Validation models whole-node power loss (hot and
    warm lose unpersisted bytes, the remote store drops
    acked-but-invisible blobs) and then proves the §4.1 guarantee twice:

    * the hot tier **alone** satisfies the inherited journal check — the
      commit record never depends on the warm or remote tier, even when
      the crash landed mid-demotion;
    * :func:`~repro.core.recovery.recover` over the whole
      ``TieredDevice`` agrees byte-exactly, picks the hot copy while it
      is valid, and keeps working with the remote tier completely
      unavailable.
    """

    name = "tiered"
    description = (
        "one-shot checkpoints with async warm/remote demotion; hot crashes"
    )
    region = "hot region"
    tiers = TierPlan(demote_threads=1)

    def validate_recovery(
        self, device: CrashPointDevice, spec: WorkloadSpec, journal: RunJournal
    ) -> RecoveryOutcome:
        # The hot tier alone must satisfy §4.1 — the commit record never
        # depends on the (asynchronous, lossy) warm or remote copies.
        outcome = super().validate_recovery(device, spec, journal)
        if "warm_device" not in journal.aux:
            # The crash landed inside the hot region's format — before
            # the builder brings the colder tiers into being.
            return outcome
        violations, hot_step = outcome.violations, outcome.recovered_step
        remote = journal.aux["remote_store"]
        # The tier walk must agree byte-exactly, with and without the
        # remote tier reachable.
        tiers = TieredDevice(device.inner, journal.aux["warm_device"], remote)
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
        return outcome


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        EngineOneShotWorkload(),
        StreamingTicketWorkload(),
        OrchestratorWorkload(),
        OneChunkOrchestratorWorkload(),
        DistributedWorkload(),
        ElasticShardedWorkload(),
        StripedEngineWorkload(),
        TieredEngineWorkload(),
    )
}

#: Per-workload default slot counts: the orchestrator workload must host
#: ≥3 concurrent checkpoints (N = slots − 1).
DEFAULT_SLOTS: Dict[str, int] = {
    "engine": 3,
    "streaming": 3,
    "orchestrator": 4,
    "one-chunk": 3,
    "distributed": 3,
    "elastic": 3,
    "striped": 3,
    "tiered": 3,
}

#: Per-workload default world sizes: the elastic scenario shards a
#: 4-writer checkpoint and recovers it onto 2 and 8 ranks.
DEFAULT_WORLD: Dict[str, int] = {
    "distributed": 2,
    "elastic": 4,
}
