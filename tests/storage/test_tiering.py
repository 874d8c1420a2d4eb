"""Tier policy and tier-walking recovery tests.

Covers the demotion path (commit → warm region + remote blob, off the
commit path), the skip/failure accounting, and the recovery walk's
fall-through behaviour when the hot copy is bit-flipped, truncated, or
the whole stack is degraded — including the remote store's eventual-
visibility window.
"""

import dataclasses

import pytest

from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover
from repro.errors import (
    ConfigError,
    NoCheckpointError,
    RemoteUnavailableError,
)
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.faults import CrashPointDevice
from repro.storage.remote import REMOTE_PREFIX, RemoteStore
from repro.storage.ssd import InMemorySSD
from repro.storage.tiering import (
    TieredDevice,
    TierPlan,
    TierPolicy,
    remote_key,
)

PAYLOAD_CAPACITY = 256
NUM_SLOTS = 3
SLOT_SIZE = PAYLOAD_CAPACITY + RECORD_SIZE


class Stack:
    """A fully wired tiered stack for tests."""

    def __init__(self, visibility_ops=0, metrics=None, plan=None,
                 warm=None):
        total = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE).total_size
        self.hot = InMemorySSD(total, name="hot")
        self.warm = warm or InMemorySSD(total, name="warm")
        self.remote = RemoteStore(visibility_ops=visibility_ops)
        self.metrics = metrics
        self.device = TieredDevice(self.hot, self.warm, self.remote)
        self.layout = DeviceLayout.format(
            self.device, num_slots=NUM_SLOTS, slot_size=SLOT_SIZE
        )
        self.policy = TierPolicy(
            self.layout, self.warm, self.remote, plan=plan, metrics=metrics
        )
        self.engine = CheckpointEngine(
            self.layout, writer_threads=2, post_cas_hook=self.policy.on_commit
        )

    def checkpoint(self, step):
        payload = bytes([step % 251]) * (PAYLOAD_CAPACITY - step % 7)
        result = self.engine.checkpoint(payload, step=step)
        assert result.committed
        return payload

    def settle(self):
        assert self.policy.drain(timeout=10.0)

    def close(self):
        self.policy.stop()
        self.engine.close()

    # -- corruption helpers -------------------------------------------

    def corrupt_hot_payload(self, truncate=False):
        """Break the committed hot copy: bit-flip (or zero the tail of)
        every slot payload so neither the commit record nor the slot
        scan can validate anything on the hot tier."""
        for slot in range(NUM_SLOTS):
            offset = self.layout.payload_offset(slot)
            if truncate:
                self.hot.write(offset + 8, b"\x00" * (PAYLOAD_CAPACITY - 8))
            else:
                byte = self.hot.read(offset, 1)
                self.hot.write(offset, bytes([byte[0] ^ 0xFF]))
            self.hot.persist(offset, PAYLOAD_CAPACITY)

    def corrupt_superblock(self, device):
        device.write(0, b"\x00" * 64)
        device.persist(0, 64)


@pytest.fixture
def stack():
    s = Stack()
    yield s
    s.close()


class TestDemotion:
    def test_commit_demotes_to_warm_and_remote(self, stack):
        expected = {}
        for step in (1, 2, 3):
            expected[step] = stack.checkpoint(step)
        stack.settle()
        assert stack.policy.demoted == 3
        assert stack.policy.failures == 0
        # Remote: one whole blob per checkpoint, newest key last.
        assert len(stack.remote.list(REMOTE_PREFIX)) == 3
        # Warm: an independently recoverable region holding the newest.
        recovered = recover(stack.policy.warm_engine.layout)
        assert recovered.meta.step == 3
        assert recovered.payload == expected[3]

    def test_warm_payload_is_fenced_before_its_header(self):
        """The warm engine commits like any single-fence engine: two
        writer shares, the header, the commit record, then ONE fence over
        ``[commit_offset, payload_end)``; the warm copy then recovers."""
        total = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE).total_size
        warm = CrashPointDevice(
            InMemorySSD(total, name="warm"), record_ops=True
        )
        stack = Stack(warm=warm, plan=TierPlan(demote_threads=2))
        try:
            warm.op_log.clear()
            expected = stack.checkpoint(1)
            stack.settle()
            layout = stack.policy.warm_engine.layout
            slot = stack.policy.warm_engine.committed().slot
            lo = layout.payload_offset(slot)
            header = layout.slot_offset(slot)
            ops = list(warm.op_log)

            def writes_to(start, length):
                return [i for i, op in enumerate(ops)
                        if op.kind == "write" and op.touches(start, start + length)]

            fences = [i for i, op in enumerate(ops) if op.kind == "persist"]
            payload_writes = writes_to(lo, len(expected))
            assert len(payload_writes) == 2 and len(fences) == 1
            assert (ops[fences[0]].offset, ops[fences[0]].length) == (
                layout.commit_offset, lo + len(expected) - layout.commit_offset
            )
            assert max(payload_writes) < min(writes_to(header, RECORD_SIZE))
            assert max(writes_to(layout.commit_offset, RECORD_SIZE)) < fences[0]
            stack.corrupt_hot_payload()
            result = recover(stack.device)
            assert result.source.startswith("warm:")
            assert result.payload == expected
        finally:
            stack.close()

    def test_remote_keys_sort_numerically(self):
        assert remote_key(9) < remote_key(10) < remote_key(100)

    def test_hook_never_raises_on_bad_meta(self, stack):
        committed = stack.engine.committed()
        assert committed is None
        stack.checkpoint(1)
        stack.settle()
        stale = dataclasses.replace(
            stack.engine.committed(), payload_crc=0xDEADBEEF
        )
        stack.policy.on_commit(stale)  # recycled-slot model: CRC mismatch
        stack.settle()
        assert stack.policy.skipped >= 1

    def test_remote_outage_counted_and_survived(self, stack):
        stack.remote.fail()
        stack.checkpoint(1)
        stack.settle()
        assert stack.policy.failures == 1  # the remote leg
        assert stack.policy.demoted == 1  # the warm leg still landed
        stack.remote.restore()
        stack.checkpoint(2)
        stack.settle()
        assert stack.remote.list(REMOTE_PREFIX) != []

    def test_full_backlog_skips_not_blocks(self):
        metrics = MetricsRegistry()
        stack = Stack(metrics=metrics, plan=TierPlan(max_queue=1))
        try:
            # Stop the worker first so the queue cannot drain, then
            # flood the hook: the first enqueue fits, the rest skip.
            stack.checkpoint(1)
            stack.settle()
            stack.policy.stop()
            meta = stack.engine.committed()
            for _ in range(3):
                stack.policy.on_commit(meta)
            assert stack.policy.skipped >= 2
            assert metrics.value(M.TIER_DEMOTION_SKIPPED) >= 2
        finally:
            stack.close()

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            TierPlan(demote_threads=0)
        with pytest.raises(ConfigError):
            TierPlan(max_queue=0)
        remote = TierPlan(remote_visibility_ops=5).build_remote("r")
        remote.put("k", b"x")
        with pytest.raises(KeyError):
            remote.get("k")


class TestWarmSlotCustody:
    """A demotion never writes into the slot the warm commit record
    points at, whatever hot counters the demotions carry."""

    def _run(self, point=None):
        """Commit step 1, abort two hot tickets, commit step 4: two
        demotions whose hot counters (1 and 4) share ``counter % 3``.
        The warm device crashes at its mutating op ``point``; two more
        commits follow.  Returns the warm device and its op count after
        each of the two demotions."""
        total = Geometry(num_slots=NUM_SLOTS, slot_size=SLOT_SIZE).total_size
        warm = CrashPointDevice(InMemorySSD(total, name="warm"), budget=point)
        stack = Stack(warm=warm)
        try:
            stack.checkpoint(1)
            stack.settle()
            first = warm.operations_performed
            for _ in range(2):
                stack.engine.begin().abort()
            stack.checkpoint(4)
            stack.settle()
            second = warm.operations_performed
            # A crashed warm tier must not wedge the demoter either.
            stack.checkpoint(5)
            stack.checkpoint(6)
            stack.settle()
        finally:
            stack.close()
        return warm, first, second

    def test_warm_checkpoint_survives_a_crash_anywhere_in_the_next_demotion(
        self,
    ):
        _, first, second = self._run()
        assert second > first
        for point in range(first, second):
            warm, _, _ = self._run(point)
            if not warm.inner.crashed:
                warm.inner.crash()
            warm.inner.recover()
            recovered = recover(DeviceLayout.open(warm.inner))
            assert recovered.meta.step >= 1, f"crash at warm op {point}"


class TestTieredDevice:
    def test_engine_traffic_never_touches_cold_tiers(self, stack):
        # No demotion has run: the warm device must still be virgin —
        # structurally, engine writes cannot reach it.
        with pytest.raises(Exception) as excinfo:
            DeviceLayout.open(InMemorySSD(64, name="probe"))
        probe_error = type(excinfo.value)
        warm_clone = InMemorySSD(stack.warm.capacity, name="w2")
        device = TieredDevice(
            InMemorySSD(stack.hot.capacity, name="h2"),
            warm_clone,
            RemoteStore(),
        )
        layout = DeviceLayout.format(
            device, num_slots=NUM_SLOTS, slot_size=SLOT_SIZE
        )
        engine = CheckpointEngine(layout, writer_threads=2)
        engine.checkpoint(b"x" * 64, step=1)
        engine.close()
        with pytest.raises(probe_error):
            DeviceLayout.open(warm_clone)

    def test_preferred_align_delegates_to_hot(self):
        class Aligned(InMemorySSD):
            @property
            def preferred_align(self):
                return 4096

        device = TieredDevice(
            Aligned(64 * 1024, name="hot"),
            InMemorySSD(64 * 1024, name="warm"),
            RemoteStore(),
        )
        assert device.preferred_align == 4096


class TestTierWalkRecovery:
    """Satellite: corrupt-hot fall-through with typed error context and
    per-tier attempt accounting."""

    def test_bitflip_hot_falls_through_to_warm(self):
        metrics = MetricsRegistry()
        stack = Stack(metrics=metrics)
        try:
            expected = stack.checkpoint(1)
            stack.settle()
            stack.corrupt_hot_payload()
            result = recover(stack.device, metrics=metrics)
            assert result.source == "warm:commit-record"
            assert result.payload == expected
            assert result.meta.step == 1
            assert metrics.value(
                M.TIER_RECOVERY_ATTEMPTS,
                tier="hot", outcome="NoCheckpointError",
            ) == 1
            assert metrics.value(
                M.TIER_RECOVERY_ATTEMPTS, tier="warm", outcome="recovered"
            ) == 1
            # Both per-tier recover() calls charged the global counter.
            assert metrics.value(M.RECOVERY_ATTEMPTS) >= 2
        finally:
            stack.close()

    def test_truncated_hot_falls_through_to_warm(self, stack):
        expected = stack.checkpoint(1)
        stack.settle()
        stack.corrupt_hot_payload(truncate=True)
        result = recover(stack.device)
        assert result.source.startswith("warm:")
        assert result.payload == expected

    def test_unformatted_hot_falls_through(self):
        metrics = MetricsRegistry()
        stack = Stack(metrics=metrics)
        try:
            stack.checkpoint(1)
            stack.settle()
            stack.corrupt_superblock(stack.hot)
            result = recover(stack.device, metrics=metrics)
            assert result.source.startswith("warm:")
            assert metrics.value(
                M.TIER_RECOVERY_ATTEMPTS, tier="hot", outcome="LayoutError"
            ) == 1
        finally:
            stack.close()

    def test_hot_and_warm_corrupt_fall_to_remote(self, stack):
        expected = stack.checkpoint(1)
        newest = stack.checkpoint(2)
        stack.settle()
        stack.corrupt_hot_payload()
        stack.corrupt_superblock(stack.warm)
        result = recover(stack.device)
        assert result.source == "remote"
        assert result.meta.step == 2
        assert result.payload == newest
        del expected

    def test_all_tiers_dark_names_every_failure(self, stack):
        stack.checkpoint(1)
        stack.settle()
        stack.corrupt_hot_payload()
        stack.corrupt_superblock(stack.warm)
        stack.remote.fail()
        with pytest.raises(NoCheckpointError) as excinfo:
            recover(stack.device)
        message = str(excinfo.value)
        assert "hot: NoCheckpointError" in message
        assert "warm: LayoutError" in message
        assert "remote: RemoteUnavailableError" in message

    def test_remote_outage_is_typed_not_generic(self, stack):
        with pytest.raises(RemoteUnavailableError):
            stack.remote.fail()
            stack.remote.get("anything")

    def test_visibility_window_blob_not_served_until_settled(self):
        stack = Stack(visibility_ops=100)
        try:
            stack.checkpoint(1)
            stack.settle()  # demotion done; blob acked, NOT yet visible
            stack.corrupt_hot_payload()
            stack.corrupt_superblock(stack.warm)
            # Inside the window the blob is as good as absent.
            with pytest.raises(NoCheckpointError):
                recover(stack.device)
            stack.remote.settle()
            result = recover(stack.device)
            assert result.source == "remote"
            assert result.meta.step == 1
        finally:
            stack.close()

    def test_power_fail_inside_window_loses_only_the_cold_copy(self):
        stack = Stack(visibility_ops=100)
        try:
            expected = stack.checkpoint(1)
            stack.settle()
            stack.remote.power_fail()  # ingest pipeline lost the blob
            # The commit record never depended on the remote tier: the
            # hot tier still serves the checkpoint.
            result = recover(stack.device)
            assert result.source == "hot:commit-record"
            assert result.payload == expected
        finally:
            stack.close()

    def test_explicit_tiers_override_device_attributes(self, stack):
        expected = stack.checkpoint(1)
        stack.settle()
        stack.corrupt_hot_payload()
        # A tiered source assembled just for recovery, off plain devices.
        result = recover(
            TieredDevice(stack.hot, stack.warm, stack.remote)
        )
        assert result.source.startswith("warm:")
        assert result.payload == expected
