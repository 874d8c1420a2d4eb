"""Tests for distributed checkpoint coordination and consistent recovery."""

import threading
import time

import pytest

from repro.core.barrier import CheckpointBarrier
from repro.core.distributed import DistributedCoordinator, DistributedRank
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover_consistent, valid_checkpoints
from repro.errors import (
    DistributedError,
    DistributedTimeoutError,
    NoCheckpointError,
)
from repro.service.pool import EngineSpec, build_stack
from repro.storage.ssd import InMemorySSD

PAYLOAD_CAPACITY = 512


def make_device(num_slots=3):
    slot_size = PAYLOAD_CAPACITY + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    return InMemorySSD(capacity=geometry.total_size)


def make_rank(rank, coordinator, num_slots=3):
    """One rank the one way there is: the builder's stack with the
    coordinator's binding, under the one handle."""
    spec = EngineSpec(
        capacity_bytes=PAYLOAD_CAPACITY, num_concurrent=num_slots - 1
    )
    stack = build_stack(
        spec, device=make_device(num_slots), rank=coordinator.binding(rank)
    )
    return DistributedRank(rank, stack, coordinator)


def make_group(world_size, num_slots=3, timeout=10.0):
    barrier = CheckpointBarrier(world_size, timeout=timeout)
    coordinator = DistributedCoordinator(barrier=barrier)
    workers = [
        make_rank(rank, coordinator, num_slots) for rank in range(world_size)
    ]
    return barrier, workers


def partition_payload(rank, step):
    return f"rank={rank};step={step};".encode() * 4


class TestBarrier:
    def test_single_worker_releases_immediately(self):
        barrier = CheckpointBarrier(1)
        barrier.synchronize(0, step=5)
        assert barrier.peer_check == 5

    def test_all_workers_must_arrive(self):
        barrier = CheckpointBarrier(2, timeout=5.0)
        order = []

        def peer():
            barrier.synchronize(1, step=1)
            order.append("peer-released")

        thread = threading.Thread(target=peer)
        thread.start()
        import time

        time.sleep(0.05)
        assert not order  # peer still waiting
        barrier.synchronize(0, step=1)
        thread.join()
        assert order == ["peer-released"]
        assert barrier.peer_check == 1

    def test_timeout_raises(self):
        barrier = CheckpointBarrier(2, timeout=0.05)
        with pytest.raises(DistributedError):
            barrier.synchronize(0, step=1)

    def test_invalid_rank_rejected(self):
        barrier = CheckpointBarrier(2)
        with pytest.raises(DistributedError):
            barrier.synchronize(5, step=1)

    def test_duplicate_report_rejected(self):
        barrier = CheckpointBarrier(1)
        barrier.synchronize(0, step=1)
        with pytest.raises(DistributedError):
            barrier.synchronize(0, step=1)

    def test_independent_rounds(self):
        barrier = CheckpointBarrier(1)
        barrier.synchronize(0, step=3)
        barrier.synchronize(0, step=1)  # late round for an older step
        assert barrier.peer_check == 3


class TestBarrierRegressions:
    """The PR-5 bug fixes: bounded memory, consistent timeout outcome."""

    def test_settled_rounds_are_garbage_collected(self):
        barrier = CheckpointBarrier(1, history=4)
        for step in range(1, 21):
            barrier.synchronize(0, step=step)
        assert barrier.peer_check == 20
        assert barrier.in_flight_rounds == 0
        assert barrier.settled_rounds <= 4

    def test_memory_bounded_by_in_flight_rounds(self):
        """Completed rounds leave only a bounded tombstone window even
        when many steps are coordinated concurrently."""
        barrier = CheckpointBarrier(2, history=8)
        for step in range(1, 6):
            barrier.arrive(0, step)
        assert barrier.in_flight_rounds == 5
        for step in range(1, 6):
            barrier.arrive(1, step)
        assert barrier.in_flight_rounds == 0
        assert barrier.settled_rounds == 5
        assert barrier.peer_check == 5

    def test_timeout_reports_consistent_arrival_count(self):
        barrier = CheckpointBarrier(3, timeout=0.05)
        with pytest.raises(DistributedTimeoutError) as excinfo:
            barrier.synchronize(0, step=7)
        message = str(excinfo.value)
        assert "1 of 3" in message
        assert "[1, 2]" in message
        outcome = barrier.round_outcome(7)
        assert outcome is not None and outcome.status == "failed"
        assert outcome.arrived == (0,)
        assert outcome.missing == (1, 2)

    def test_straggler_after_timeout_is_rejected(self):
        """A rank arriving after its peers abandoned the round must not
        resurrect it or advance peer_check."""
        barrier = CheckpointBarrier(2, timeout=0.05)
        with pytest.raises(DistributedTimeoutError):
            barrier.synchronize(0, step=1)
        handle = barrier.arrive(1, step=1)
        assert handle.settled
        with pytest.raises(DistributedTimeoutError):
            handle.wait()
        assert barrier.peer_check == -1
        assert barrier.in_flight_rounds == 0

    def test_concurrent_multi_step_rounds_settle_independently(self):
        barrier = CheckpointBarrier(2, timeout=5.0)
        barrier.arrive(0, 1)
        barrier.arrive(0, 2)
        barrier.arrive(1, 2)  # newer round completes first
        assert barrier.peer_check == 2
        assert barrier.in_flight_rounds == 1
        barrier.arrive(1, 1)
        assert barrier.peer_check == 2  # older completion cannot regress
        assert barrier.in_flight_rounds == 0

    def test_waiters_observe_failure_marked_by_peer(self):
        """When one waiter's deadline fails the round, a concurrent
        waiter for the same round observes the same failed outcome."""
        barrier = CheckpointBarrier(3, timeout=0.15)
        errors = []

        def wait_rank(rank):
            try:
                barrier.synchronize(rank, step=1)
            except DistributedError as exc:
                errors.append(str(exc))

        threads = [
            threading.Thread(target=wait_rank, args=(rank,))
            for rank in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 2
        # Both report the identical settled arrival count.
        assert all("2 of 3" in message for message in errors)

    def test_round_metrics_recorded(self):
        barrier = CheckpointBarrier(1, timeout=0.05)
        barrier.synchronize(0, step=1)
        with pytest.raises(DistributedError):
            barrier.arrive(0, step=1)  # duplicate, not a new round
        metrics = barrier.metrics
        from repro.obs.metrics import M

        assert metrics.value(M.BARRIER_ROUNDS_COMPLETED) == 1
        assert metrics.value(M.BARRIER_ROUNDS_FAILED) == 0
        assert metrics.value(M.BARRIER_ROUNDS_INFLIGHT) == 0


class TestDistributedCheckpointing:
    def test_lockstep_checkpoints_commit_everywhere(self):
        _, workers = make_group(world_size=3)
        for step in (1, 2, 3):
            threads = [
                threading.Thread(
                    target=worker.checkpoint,
                    args=(partition_payload(worker.rank, step), step),
                )
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        consistent = recover_consistent([w.stack.layout for w in workers])
        assert consistent.step == 3
        for rank, payload in enumerate(consistent.payloads):
            assert payload == partition_payload(rank, 3)

    def test_straggler_keeps_previous_step_recoverable(self):
        """If one worker never commits step 2, the group must recover
        step 1 — the old slots were held across the barrier."""
        coordinator = DistributedCoordinator(
            barrier=CheckpointBarrier(2, timeout=0.2)
        )
        workers = [make_rank(rank, coordinator) for rank in range(2)]
        # Step 1 commits in lockstep.
        threads = [
            threading.Thread(
                target=worker.checkpoint,
                args=(partition_payload(worker.rank, 1), 1),
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Step 2: only worker 0 tries; the barrier times out (peer died).
        with pytest.raises(DistributedError):
            workers[0].checkpoint(partition_payload(0, 2), 2)
        consistent = recover_consistent([w.stack.layout for w in workers])
        assert consistent.step == 1
        assert consistent.payloads[0] == partition_payload(0, 1)
        assert consistent.payloads[1] == partition_payload(1, 1)

    def test_valid_checkpoints_includes_superseded_slots(self):
        _, workers = make_group(world_size=1)
        worker = workers[0]
        worker.checkpoint(partition_payload(0, 1), 1)
        worker.checkpoint(partition_payload(0, 2), 2)
        steps = {meta.step for meta in valid_checkpoints(worker.stack.layout)}
        assert steps == {1, 2}

    def test_recovery_with_no_common_step_raises(self):
        coordinator = DistributedCoordinator(barrier=CheckpointBarrier(1))
        worker_a = make_rank(0, coordinator)
        layout_b = DeviceLayout.format(
            make_device(), num_slots=3, slot_size=PAYLOAD_CAPACITY + RECORD_SIZE
        )
        worker_a.checkpoint(b"only-a", 1)
        with pytest.raises(NoCheckpointError):
            recover_consistent([worker_a.stack.layout, layout_b])

    def test_recovery_needs_layouts(self):
        with pytest.raises(DistributedError):
            recover_consistent([])

    def test_pipeline_parallel_partitions_differ_per_rank(self):
        """Each rank checkpoints its own partition; recovery returns the
        rank-aligned payloads."""
        _, workers = make_group(world_size=4)
        step = 1
        threads = [
            threading.Thread(
                target=worker.checkpoint,
                args=(f"stage-{worker.rank}-weights".encode(), step),
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        consistent = recover_consistent([w.stack.layout for w in workers])
        assert consistent.payloads == [
            b"stage-0-weights",
            b"stage-1-weights",
            b"stage-2-weights",
            b"stage-3-weights",
        ]


class TestRecoverConsistentValidation:
    """PR-5 fix: payload CRCs are re-validated after the chunked read."""

    def _lockstep(self, workers, step):
        threads = [
            threading.Thread(
                target=worker.checkpoint,
                args=(partition_payload(worker.rank, step), step),
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_torn_rank_payload_falls_back_to_older_step(self):
        """A rank whose newest payload is torn on media must not poison
        recovery: the intersection falls back to the newest step every
        rank still holds intact."""
        _, workers = make_group(world_size=2)
        self._lockstep(workers, 1)
        self._lockstep(workers, 2)
        # Tear rank 1's step-2 payload (flip bytes mid-payload, header
        # left intact) — its CRC can no longer validate.
        layout = workers[1].stack.layout
        meta = next(
            m for m in valid_checkpoints(layout) if m.step == 2
        )
        offset = layout.payload_offset(meta.slot)
        layout.device.write(offset, b"\xff" * 8)
        consistent = recover_consistent([w.stack.layout for w in workers])
        assert consistent.step == 1
        assert consistent.payloads[0] == partition_payload(0, 1)
        assert consistent.payloads[1] == partition_payload(1, 1)

    def test_reports_sources_per_rank(self):
        _, workers = make_group(world_size=2)
        self._lockstep(workers, 1)
        consistent = recover_consistent([w.stack.layout for w in workers])
        assert consistent.sources == ["commit-record", "commit-record"]

    def test_unstable_rank_named_in_error(self, monkeypatch):
        """A payload that keeps failing CRC re-validation after the read
        (overwritten under an online reader) names the failing rank."""
        _, workers = make_group(world_size=2)
        self._lockstep(workers, 1)

        import repro.core.recovery as dist

        real_load = dist.load_validated
        torn_layout = workers[1].stack.layout
        final_loads = []

        def torn_load(layout, meta, chunk_size=None):
            if chunk_size is None:  # the scan's validation: slot intact
                return real_load(layout, meta)
            final_loads.append(layout is torn_layout)
            if layout is torn_layout:
                return None  # overwritten under us since the scan
            return real_load(layout, meta, chunk_size)

        monkeypatch.setattr(dist, "load_validated", torn_load)
        with pytest.raises(DistributedError) as excinfo:
            recover_consistent(
                [w.stack.layout for w in workers], max_attempts=3
            )
        message = str(excinfo.value)
        assert "rank 1" in message
        assert "3 times" in message
        # Every attempt loaded rank 0 (once), then was refused rank 1.
        assert final_loads == [False, True] * 3
