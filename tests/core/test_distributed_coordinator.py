"""Tests for the pipelined distributed coordinator (§4.1).

Covers the PR-5 acceptance criteria: a failed coordination round must
not leak the superseded slot (``free_slots`` recovers fully), the group
degrades instead of poisoning the engines, and with a deliberately slow
peer the training-thread checkpoint call returns without waiting on the
barrier round.
"""

import threading
import time

import pytest

from repro.core.distributed import DistributedCoordinator, DistributedRank
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover_consistent
from repro.core.snapshot import BytesSource
from repro.errors import (
    DegradedGroupError,
    DistributedError,
    DistributedTimeoutError,
    EngineError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.service.pool import EngineSpec, build_stack
from repro.storage.ssd import InMemorySSD

PAYLOAD_CAPACITY = 512
NUM_SLOTS = 3

#: Generous bound for polling asynchronous settlement in tests.
SETTLE_SECONDS = 5.0


def make_device(num_slots=NUM_SLOTS):
    slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    return InMemorySSD(capacity=geometry.total_size)


def make_layout(num_slots=NUM_SLOTS):
    return DeviceLayout.format(
        make_device(num_slots),
        num_slots=num_slots,
        slot_size=PAYLOAD_CAPACITY + RECORD_SIZE,
    )


def make_rank(rank, coord, num_slots=NUM_SLOTS, **spec):
    """One rank the one way there is: the builder's stack with the
    coordinator's binding, under the one handle."""
    stack = build_stack(
        EngineSpec(
            capacity_bytes=PAYLOAD_CAPACITY,
            num_concurrent=num_slots - 1,
            **spec,
        ),
        device=make_device(num_slots),
        rank=coord.binding(rank),
    )
    return DistributedRank(rank, stack, coord)


def payload(rank, step):
    return f"rank={rank};step={step};".encode() * 4


def commit_locally(rank, step):
    """The async verb, waited to the local commit only — never a peer."""
    handle = rank.checkpoint_async(BytesSource(payload(rank.rank, step)), step)
    return handle.wait(SETTLE_SECONDS)


def lockstep(workers, step):
    errors = []

    def one(worker):
        try:
            worker.checkpoint(payload(worker.rank, step), step)
        except DistributedError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(w,)) for w in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def wait_until(predicate, timeout=SETTLE_SECONDS):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestFailedRoundReclaimsSlots:
    def test_timeout_does_not_leak_a_slot(self):
        """The headline PR-5 bug: rank 1 stalls at step 2, rank 0's round
        fails — its superseded slot must be reclaimed, not leaked."""
        with DistributedCoordinator(world_size=2, timeout=0.3) as coord:
            workers = [make_rank(rank, coord) for rank in range(2)]
            assert lockstep(workers, 1) == []
            engine = workers[0].stack.engine
            free_after_commit = engine.free_slots
            with pytest.raises(DistributedTimeoutError):
                workers[0].checkpoint(payload(0, 2), 2)
            # The step-1 slot was held across the failed round; once the
            # group agreed the step is dead it comes back.
            assert wait_until(
                lambda: engine.free_slots == free_after_commit
                and engine.held_slots == ()
            ), (
                f"slot leaked: free={engine.free_slots} "
                f"held={engine.held_slots} expected {free_after_commit} free"
            )
            assert coord.degraded
            assert coord.failed_ranks == (1,)
            assert engine.metrics.value(M.HELD_SLOTS) == 0

    def test_degraded_group_suspends_and_reforms(self):
        with DistributedCoordinator(world_size=2, timeout=0.2) as coord:
            workers = [make_rank(rank, coord) for rank in range(2)]
            assert lockstep(workers, 1) == []
            with pytest.raises(DistributedTimeoutError):
                workers[0].checkpoint(payload(0, 2), 2)
            assert coord.degraded
            with pytest.raises(DegradedGroupError):
                workers[1].checkpoint(payload(1, 3), 3)
            coord.reform()
            assert not coord.degraded
            assert coord.failed_ranks == ()
            assert lockstep(workers, 3) == []
            consistent = recover_consistent(
                [w.stack.layout for w in workers]
            )
            assert consistent.step == 3

    def test_previous_step_survives_the_failed_round(self):
        """Reclaiming held slots must not sacrifice the last globally
        consistent checkpoint — recovery still lands on step 1."""
        with DistributedCoordinator(world_size=2, timeout=0.2) as coord:
            workers = [make_rank(rank, coord) for rank in range(2)]
            assert lockstep(workers, 1) == []
            with pytest.raises(DistributedTimeoutError):
                workers[0].checkpoint(payload(0, 2), 2)
            consistent = recover_consistent(
                [w.stack.layout for w in workers]
            )
            assert consistent.step == 1
            assert consistent.payloads[1] == payload(1, 1)


class TestPipelinedCoordination:
    def test_pipelined_checkpoint_returns_before_peers_arrive(self):
        """checkpoint_async() must not wait for the round: its handle
        settles once the local commit is durable."""
        with DistributedCoordinator(world_size=2, timeout=10.0) as coord:
            fast = make_rank(0, coord)
            slow = make_rank(1, coord)
            started = time.monotonic()
            result = commit_locally(fast, 1)
            elapsed = time.monotonic() - started
            assert result.committed
            assert not coord.round_outcome(1)
            assert elapsed < 2.0  # did not sit out the 10 s round
            peer = threading.Thread(
                target=slow.checkpoint, args=(payload(1, 1), 1)
            )
            peer.start()
            outcome = fast.wait_consistent(1)
            peer.join()
            assert outcome.status == "completed"
            assert coord.peer_check == 1

    def test_held_slot_recycled_after_round_completes(self):
        with DistributedCoordinator(world_size=2, timeout=10.0) as coord:
            fast = make_rank(0, coord)
            slow = make_rank(1, coord)
            lockstep([fast, slow], 1)
            engine = fast.stack.engine
            free_steady = engine.free_slots
            # Step 2: the fast rank commits and returns immediately; the
            # superseded step-1 slot is in custody until the peer lands.
            commit_locally(fast, 2)
            assert engine.held_slots != () or coord.peer_check >= 2 or (
                coord.round_outcome(2) is not None
            )
            slow_thread = threading.Thread(
                target=slow.checkpoint, args=(payload(1, 2), 2)
            )
            slow_thread.start()
            fast.wait_consistent(2)
            slow_thread.join()
            assert wait_until(
                lambda: engine.free_slots == free_steady
                and engine.held_slots == ()
            )

    def test_training_thread_not_blocked_by_slow_peer(self):
        """Acceptance: with a deliberately slow peer, the training
        thread's checkpoint call returns without waiting on the round."""
        peer_delay = 1.5
        with DistributedCoordinator(world_size=2, timeout=30.0) as coord:
            orch = make_rank(
                0, coord, num_chunks=2, chunk_size=PAYLOAD_CAPACITY
            )
            slow = make_rank(1, coord)

            def slow_peer():
                time.sleep(peer_delay)
                slow.checkpoint(payload(1, 1), 1)

            peer = threading.Thread(target=slow_peer)
            peer.start()
            try:
                started = time.monotonic()
                handle = orch.checkpoint_async(
                    BytesSource(payload(0, 1)), step=1
                )
                issue_elapsed = time.monotonic() - started
                result = handle.wait(10.0)
                commit_elapsed = time.monotonic() - started
                assert result.committed
                # Training thread and even the local commit wait are
                # decoupled from the peer's 1.5 s delay.
                assert issue_elapsed < 0.5
                assert commit_elapsed < peer_delay
                outcome = orch.wait_consistent(1, timeout=10.0)
                assert outcome.status == "completed"
            finally:
                peer.join()
                orch.close()

    def test_orchestrator_group_degrades_on_lost_peer(self):
        with DistributedCoordinator(world_size=2, timeout=0.3) as coord:
            orch = make_rank(
                0, coord, num_chunks=2, chunk_size=PAYLOAD_CAPACITY
            )
            peer = make_rank(1, coord)
            try:
                handle = orch.checkpoint_async(
                    BytesSource(payload(0, 1)), step=1
                )
                peer_thread = threading.Thread(
                    target=peer.checkpoint, args=(payload(1, 1), 1)
                )
                peer_thread.start()
                assert handle.wait(10.0).committed
                peer_thread.join()
                orch.wait_consistent(1, timeout=10.0)
                free_steady = orch.stack.engine.free_slots
                # Step 2: the peer never checkpoints; the watcher expires
                # the round and the group degrades without a slot leak.
                handle = orch.checkpoint_async(
                    BytesSource(payload(0, 2)), step=2
                )
                assert handle.wait(10.0).committed
                assert wait_until(lambda: coord.degraded)
                assert wait_until(
                    lambda: orch.stack.engine.free_slots == free_steady
                    and orch.stack.engine.held_slots == ()
                )
                with pytest.raises(DegradedGroupError):
                    orch.checkpoint_async(BytesSource(b"x"), step=3)
            finally:
                orch.close()

    def test_concurrent_steps_in_flight(self):
        """Ranks that never wait in the commit may be several rounds
        apart; every round settles and every held slot comes back."""
        with DistributedCoordinator(world_size=2, timeout=10.0) as coord:
            workers = [make_rank(rank, coord, num_slots=4) for rank in range(2)]
            for step in (1, 2, 3):
                commit_locally(workers[0], step)
            for step in (1, 2, 3):
                commit_locally(workers[1], step)
            workers[0].wait_consistent(3)
            assert coord.peer_check == 3
            for worker in workers:
                engine = worker.stack.engine
                assert wait_until(lambda e=engine: e.held_slots == ())
                assert engine.free_slots == 3  # 4 slots - committed


class TestEngineHeldSlots:
    """Engine-level custody API the coordinator is built on."""

    def test_post_cas_hook_exception_holds_instead_of_leaking(self):
        def exploding_hook(meta):
            if meta.step == 2:
                raise RuntimeError("coordination plane down")

        engine = CheckpointEngine(make_layout(), post_cas_hook=exploding_hook)
        engine.checkpoint(b"step-1", step=1)
        free_before = engine.free_slots
        with pytest.raises(RuntimeError):
            engine.checkpoint(b"step-2", step=2)
        # The superseded slot is parked, visible, and recoverable.
        assert len(engine.held_slots) == 1
        assert engine.free_slots == free_before - 1
        assert engine.reclaim_held_slots() == 1
        assert engine.free_slots == free_before
        assert engine.held_slots == ()

    def test_release_held_slot_rejects_unknown_slot(self):
        engine = CheckpointEngine(make_layout())
        with pytest.raises(EngineError):
            engine.release_held_slot(0)

    def test_declining_custodian_recycles_immediately(self):
        class Decliner:
            def take_superseded(self, meta, slot):
                return False

        engine = CheckpointEngine(make_layout(), slot_custodian=Decliner())
        engine.checkpoint(b"one", step=1)
        free = engine.free_slots
        engine.checkpoint(b"two", step=2)
        assert engine.free_slots == free
        assert engine.held_slots == ()

    def test_accepting_custodian_defers_until_release(self):
        class Holder:
            def __init__(self):
                self.taken = []

            def take_superseded(self, meta, slot):
                self.taken.append(slot)
                return True

        holder = Holder()
        engine = CheckpointEngine(make_layout(), slot_custodian=holder)
        engine.checkpoint(b"one", step=1)
        free = engine.free_slots
        engine.checkpoint(b"two", step=2)
        assert holder.taken and engine.free_slots == free - 1
        assert engine.held_slots == tuple(sorted(holder.taken))
        engine.release_held_slot(holder.taken[0])
        assert engine.free_slots == free
        assert engine.held_slots == ()


class TestWaitBeforeRoundOpens:
    """A waiter may line up before any rank's commit opened the round —
    the natural pipelined flow is checkpoint_async(step) followed
    immediately by wait_consistent(step)."""

    def test_wait_consistent_lines_up_before_any_commit(self):
        with DistributedCoordinator(world_size=2, timeout=SETTLE_SECONDS) as coord:
            orchs = [
                make_rank(
                    rank, coord, num_chunks=2, chunk_size=256, writer_threads=2
                )
                for rank in range(2)
            ]
            try:
                for orch in orchs:
                    orch.checkpoint_async(
                        BytesSource(payload(orch.rank, 1)), step=1
                    )
                # The round for step 1 almost certainly hasn't opened yet;
                # the waiter must block for it rather than raise.
                for orch in orchs:
                    outcome = orch.wait_consistent(1, timeout=SETTLE_SECONDS)
                    assert outcome.status == "completed"
                assert coord.peer_check == 1
            finally:
                for orch in orchs:
                    orch.close()

    def test_wait_round_times_out_when_no_rank_commits(self):
        with DistributedCoordinator(world_size=2, timeout=30.0) as coord:
            started = time.monotonic()
            with pytest.raises(DistributedTimeoutError) as excinfo:
                coord.wait_round(99, timeout=0.2)
            assert time.monotonic() - started < SETTLE_SECONDS
            assert "no coordination round opened" in str(excinfo.value)

    def test_wait_open_sees_already_settled_round(self):
        with DistributedCoordinator(world_size=1, timeout=30.0) as coord:
            # world of one: the round opens and completes inside arrive().
            assert coord.arrive(0, 1).status == "completed"
            assert coord.round_outcome(1).status == "completed"
            assert coord.wait_round(1, timeout=0.0).status == "completed"


class TestBarrierResize:
    """reform(world_size=...) and reform() on the rounds (elastic re-form)."""

    def test_resize_fails_pending_rounds(self):
        with DistributedCoordinator(3) as coord:
            assert coord.arrive(0, 1) is None
            coord.reform(world_size=2)
            outcome = coord.round_outcome(1)
            assert outcome.status == "failed"
            assert outcome.reason == "group re-formed"
            assert coord.world_size == 2
            assert not coord.degraded
            with pytest.raises(DistributedTimeoutError):
                coord.wait_round(1, timeout=0.0)

    def test_fail_all_pending_settles_every_round(self):
        metrics = MetricsRegistry()
        with DistributedCoordinator(2, metrics=metrics) as coord:
            coord.arrive(0, 1)
            coord.arrive(0, 2)
            coord.arrive(1, 2)  # completes round 2
            coord.reform()
            assert coord.round_outcome(1).status == "failed"
            assert metrics.value(M.BARRIER_ROUNDS_INFLIGHT) == 0
            assert coord.round_outcome(2).status == "completed"

    def test_shrink_evicts_and_names_the_reform(self):
        with DistributedCoordinator(4) as coord:
            coord.reform(world_size=2)
            with pytest.raises(DistributedError) as excinfo:
                coord.arrive(3, 5)
            message = str(excinfo.value)
            assert "rank 3 was evicted" in message
            assert "re-formed from world size 4 to 2" in message
            assert "evicted ranks [2, 3]" in message
            # Surviving ranks still coordinate.
            coord.arrive(0, 5)
            coord.arrive(1, 5)
            assert coord.round_outcome(5).status == "completed"

    def test_grow_readmits_evicted_ranks(self):
        with DistributedCoordinator(4) as coord:
            coord.reform(world_size=2)
            coord.reform(world_size=8)
            for rank in range(8):  # no evicted-rank error for 2..3
                coord.arrive(rank, 1)
            assert coord.round_outcome(1).status == "completed"

    def test_resize_rejects_empty_world(self):
        with DistributedCoordinator(2) as coord:
            with pytest.raises(DistributedError):
                coord.reform(world_size=0)
            assert coord.world_size == 2

    def test_resize_never_races_arrive(self):
        """Hammer concurrent arrive() against reform(): every arrival
        either lands in a consistent world or raises DistributedError —
        no crash, no round completing against a half-updated count."""
        coord = DistributedCoordinator(4, timeout=None)
        stop = threading.Event()
        errors = []

        def arrivals():
            step = 0
            while not stop.is_set():
                step += 1
                for rank in range(8):
                    try:
                        coord.arrive(rank, step)
                    except DistributedError:
                        pass
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

        thread = threading.Thread(target=arrivals)
        thread.start()
        try:
            for world in (2, 8, 3, 4) * 10:
                coord.reform(world_size=world)
        finally:
            stop.set()
            thread.join()
            coord.close()
        assert errors == []


class TestReform:
    def test_reform_resizes_the_world(self):
        with DistributedCoordinator(world_size=4, timeout=0.2) as coord:
            workers = [make_rank(rank, coord) for rank in range(4)]
            # Ranks 2 and 3 stall: the round fails and the group degrades.
            lockstep(workers[:2], 1)
            assert wait_until(lambda: coord.degraded)
            assert coord.failed_ranks == (2, 3)
            coord.reform(world_size=2)
            assert not coord.degraded
            assert coord.world_size == 2
            assert lockstep(workers[:2], 2) == []
            assert coord.peer_check == 2
            with pytest.raises(DistributedError, match=r"evicted ranks \[2, 3\]"):
                workers[3].checkpoint(payload(3, 2), 2)

    def test_reform_without_resize_keeps_world(self):
        with DistributedCoordinator(world_size=2, timeout=0.2) as coord:
            workers = [make_rank(rank, coord) for rank in range(2)]
            lockstep(workers[:1], 1)
            assert wait_until(lambda: coord.degraded)
            coord.reform()
            assert coord.world_size == 2
            assert lockstep(workers, 2) == []

    def test_reform_uses_no_barrier_private_state(self):
        """The round has one home: the barrier module is gone, the
        coordinator owns exactly one lock, and reform() takes only it."""
        import ast
        import importlib
        import inspect
        import textwrap

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.barrier")
        lock_types = (
            type(threading.Lock()), type(threading.RLock()),
            threading.Condition,
        )
        with DistributedCoordinator(2) as coord:
            locks = [
                name for name, value in vars(coord).items()
                if isinstance(value, lock_types)
            ]
        assert locks == ["_cond"]
        tree = ast.parse(
            textwrap.dedent(inspect.getsource(DistributedCoordinator.reform))
        )
        acquired = [
            ast.unparse(item.context_expr)
            for node in ast.walk(tree) if isinstance(node, ast.With)
            for item in node.items
        ]
        assert acquired == ["self._cond"]


class TestRoundLifecycleRegressions:
    def test_waiter_timeout_leaves_the_round_open(self):
        """A caller's short wait is that caller's business: only the
        round's own deadline fails the group's round."""
        with DistributedCoordinator(world_size=2, timeout=30.0) as coord:
            ranks = [make_rank(rank, coord) for rank in range(2)]
            assert commit_locally(ranks[0], 1).committed
            with pytest.raises(DistributedTimeoutError, match="still open"):
                ranks[0].wait_consistent(1, timeout=0.05)
            assert not coord.degraded
            assert coord.failed_ranks == ()
            # Rank 1's on-time arrival completes the round for both.
            assert ranks[1].checkpoint(payload(1, 1), 1).committed
            assert ranks[0].wait_consistent(1, timeout=0.0).status == "completed"
            assert coord.round_outcome(1).status == "completed"
            assert coord.peer_check == 1

    def test_close_releases_slots_held_for_open_rounds(self):
        """Closing the coordinator fails its open rounds and recycles
        the slots they held instead of stranding them."""
        coord = DistributedCoordinator(world_size=2, timeout=0.2)
        spec = EngineSpec(capacity_bytes=PAYLOAD_CAPACITY, backend="pmem")
        rank = DistributedRank(0, build_stack(spec, rank=coord.binding(0)), coord)
        try:
            for step in (1, 2):  # rank 1 never commits
                assert commit_locally(rank, step).committed
            engine = rank.stack.engine
            assert engine.held_slots != ()
            coord.close()
            assert wait_until(lambda: engine.held_slots == (), timeout=0.6)
            report = rank.stack.leak_report()
            assert report["free_slots"] == report["expected_free_slots"]
            assert coord.round_outcome(2).reason == "coordinator closed"
        finally:
            rank.close()
            coord.close()


class TestRankIsAnOrdinaryStack:
    """A rank is whatever ``build_stack`` assembles, plus the binding:
    throttled, tiered, file-backed and leak-reported like any stack."""

    def test_barrier_wait_excludes_the_local_persist(self):
        """A world of one never waits on anybody: the barrier-wait
        histogram must not contain the (throttled) local commit."""
        persist_seconds = 0.3
        with DistributedCoordinator(world_size=1, timeout=10.0) as coord:
            device = InMemorySSD(
                make_device().capacity,
                persist_bandwidth=PAYLOAD_CAPACITY / persist_seconds,
            )
            spec = EngineSpec(capacity_bytes=PAYLOAD_CAPACITY)
            stack = build_stack(spec, device=device, rank=coord.binding(0))
            with DistributedRank(0, stack, coord) as rank:
                started = time.monotonic()
                assert rank.checkpoint(b"x" * PAYLOAD_CAPACITY, 1).committed
                elapsed = time.monotonic() - started
                waited = stack.engine.metrics.histogram(
                    M.BARRIER_WAIT_SECONDS, rank="0"
                )
                assert elapsed >= persist_seconds
                assert waited.count == 1
                assert waited.sum < persist_seconds / 10

    def test_tiered_rank_demotes_and_coordinates(self):
        """Both claimants of the engine's one post-CAS hook run: the
        commit is demoted to the warm tier *and* registered with the
        group — and a failed round still holds, then reclaims, the
        superseded slot."""
        from repro.core.recovery import recover
        from repro.storage.tiering import TierPlan

        with DistributedCoordinator(world_size=2, timeout=0.3) as coord:
            ranks = [
                make_rank(rank, coord, tiers=TierPlan(demote_threads=1))
                for rank in range(2)
            ]
            try:
                assert lockstep(ranks, 1) == []
                assert coord.peer_check == 1
                tiered = ranks[0].stack
                assert tiered.tiering.drain(timeout=SETTLE_SECONDS)
                warm = recover(DeviceLayout.open(tiered.device.warm))
                assert (warm.meta.step, warm.payload) == (1, payload(0, 1))
                # Step 2: the peer never commits.  The step-1 slot is in
                # custody while the round is open, and comes back once
                # the group has agreed the step is dead.
                engine = tiered.engine
                free_steady = engine.free_slots
                assert commit_locally(ranks[0], 2).committed
                assert engine.held_slots != () or coord.degraded
                assert wait_until(lambda: coord.degraded)
                assert wait_until(
                    lambda: engine.free_slots == free_steady
                    and engine.held_slots == ()
                )
                assert tiered.tiering.drain(timeout=SETTLE_SECONDS)
                assert recover(DeviceLayout.open(tiered.device.warm)).meta.step == 2
            finally:
                reports = [rank.close() for rank in ranks]
            assert [r["leaked_slots"] + r["held_slots"] for r in reports] == [0, 0]

    def test_file_backed_rank_recovers_at_open(self, tmp_path):
        """Built twice over the same path, a rank comes back with what
        the region held and the engine counter continuing — nobody
        hand-passes ``recovered=``."""
        spec = EngineSpec(
            capacity_bytes=PAYLOAD_CAPACITY, path=str(tmp_path / "rank0.pc")
        )
        with DistributedCoordinator(world_size=1, timeout=10.0) as coord:
            with DistributedRank(
                0, build_stack(spec, rank=coord.binding(0)), coord
            ) as rank:
                assert rank.stack.recovered is None
                first = rank.checkpoint(payload(0, 1), 1)
                second = rank.checkpoint(payload(0, 2), 2)
        with DistributedCoordinator(world_size=1, timeout=10.0) as coord:
            with DistributedRank(
                0, build_stack(spec, rank=coord.binding(0)), coord
            ) as rank:
                recovered = rank.stack.recovered
                assert recovered.meta.step == 2
                assert recovered.payload == payload(0, 2)
                third = rank.checkpoint(payload(0, 3), 3)
                assert third.committed
                assert first.counter < second.counter < third.counter
                assert coord.peer_check == 3

    def test_leak_report_clean_after_completed_and_failed_rounds(self):
        def clean(rank):
            report = rank.stack.leak_report()
            return not (
                report["leaked_slots"]
                or report["held_slots"]
                or report["leaked_buffers"]
            ) and report["free_slots"] == report["expected_free_slots"]

        with DistributedCoordinator(world_size=2, timeout=0.2) as coord:
            ranks = [make_rank(rank, coord) for rank in range(2)]
            try:
                for step in (1, 2):
                    assert lockstep(ranks, step) == []
                assert all(wait_until(lambda r=r: clean(r)) for r in ranks)
                with pytest.raises(DistributedTimeoutError):
                    ranks[0].checkpoint(payload(0, 3), 3)  # peer lost
                assert coord.degraded
                assert all(wait_until(lambda r=r: clean(r)) for r in ranks)
                coord.reform()
                assert lockstep(ranks, 4) == []
            finally:
                reports = [rank.close() for rank in ranks]
            for report in reports:
                assert report["free_slots"] == report["expected_free_slots"]
                assert report["held_slots"] == report["leaked_buffers"] == 0
