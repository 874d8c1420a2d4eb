"""Tests for differential checkpointing and data-parallel sharding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.differential import (
    DifferentialCheckpointer,
    apply_delta,
    decode_delta,
    diff_states,
    encode_delta,
)
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.sharding import reassemble, shard_overhead_bytes, shard_payload
from repro.errors import ConfigError, CorruptCheckpointError
from repro.storage.ssd import InMemorySSD


def make_engine(payload_capacity, num_slots=3):
    slot_size = payload_capacity + RECORD_SIZE
    geometry = Geometry(num_slots=num_slots, slot_size=slot_size)
    device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(device, num_slots=num_slots,
                                 slot_size=slot_size)
    return CheckpointEngine(layout, writer_threads=2)


class TestDeltaEncoding:
    def test_identical_states_produce_empty_delta(self):
        state = b"same" * 100
        delta = diff_states(state, state, page_size=64, base_counter=1)
        assert delta.pages == ()
        assert apply_delta(state, delta) == state

    def test_single_changed_page(self):
        base = bytearray(b"\x00" * 256)
        current = bytearray(base)
        current[70] = 0xFF  # page 1 with 64-byte pages
        delta = diff_states(bytes(base), bytes(current), 64, base_counter=2)
        assert [index for index, _ in delta.pages] == [1]
        assert apply_delta(bytes(base), delta) == bytes(current)

    def test_trailing_partial_page(self):
        base = b"\x00" * 100
        current = b"\x00" * 96 + b"abcd"
        delta = diff_states(base, current, 64, base_counter=0)
        assert apply_delta(base, delta) == current

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            diff_states(b"ab", b"abc", 64, 0)

    def test_encode_decode_roundtrip(self):
        base = bytes(range(256)) * 4
        current = bytearray(base)
        current[0] ^= 0xFF
        current[500] ^= 0xFF
        delta = diff_states(base, bytes(current), 128, base_counter=9)
        decoded = decode_delta(encode_delta(delta))
        assert decoded == delta

    def test_corrupt_delta_rejected(self):
        delta = diff_states(b"\x00" * 128, b"\x01" * 128, 64, 0)
        raw = bytearray(encode_delta(delta))
        raw[:8] = b"BADMAGIC"
        with pytest.raises(CorruptCheckpointError):
            decode_delta(bytes(raw))
        with pytest.raises(CorruptCheckpointError):
            decode_delta(encode_delta(delta)[:10])

    @given(
        size=st.integers(1, 1000),
        page_size=st.integers(1, 200),
        seed=st.integers(0, 10_000),
        flips=st.integers(0, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, size, page_size, seed, flips):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        current = bytearray(base)
        for _ in range(flips):
            current[int(rng.integers(0, size))] ^= 0xA5
        delta = diff_states(base, bytes(current), page_size, base_counter=3)
        decoded = decode_delta(encode_delta(delta))
        assert apply_delta(base, decoded) == bytes(current)


class TestDifferentialCheckpointer:
    STATE_LEN = 2048

    def make(self, anchor_every=4, max_delta_fraction=0.5):
        anchors = make_engine(self.STATE_LEN + 64)
        deltas = make_engine(self.STATE_LEN + 1024)
        return DifferentialCheckpointer(
            anchors, deltas, page_size=128, anchor_every=anchor_every,
            max_delta_fraction=max_delta_fraction,
        )

    def states(self, count, change_bytes=2, seed=0):
        rng = np.random.default_rng(seed)
        state = bytearray(
            rng.integers(0, 256, size=self.STATE_LEN, dtype=np.uint8).tobytes()
        )
        out = []
        for _ in range(count):
            for _ in range(change_bytes):
                state[int(rng.integers(0, self.STATE_LEN))] ^= 0x5A
            out.append(bytes(state))
        return out

    def test_first_checkpoint_is_full(self):
        checkpointer = self.make()
        kind = checkpointer.checkpoint(self.states(1)[0], step=1)
        assert kind == "full"

    def test_small_changes_become_deltas(self):
        checkpointer = self.make()
        kinds = [
            checkpointer.checkpoint(state, step=index + 1)
            for index, state in enumerate(self.states(4))
        ]
        assert kinds == ["full", "delta", "delta", "delta"]
        assert checkpointer.stats.bytes_saved > 0

    def test_anchor_cadence_forces_fulls(self):
        checkpointer = self.make(anchor_every=3)
        kinds = [
            checkpointer.checkpoint(state, step=index + 1)
            for index, state in enumerate(self.states(7))
        ]
        assert kinds == ["full", "delta", "delta", "full", "delta", "delta",
                         "full"]

    def test_large_changes_fall_back_to_full(self):
        checkpointer = self.make(max_delta_fraction=0.3)
        states = self.states(2, change_bytes=1500)
        checkpointer.checkpoint(states[0], step=1)
        kind = checkpointer.checkpoint(states[1], step=2)
        assert kind == "full"

    def test_size_change_forces_full(self):
        checkpointer = self.make()
        checkpointer.checkpoint(b"\x00" * 100, step=1)
        assert checkpointer.checkpoint(b"\x00" * 200, step=2) == "full"

    def test_recover_reconstructs_latest_delta_state(self):
        checkpointer = self.make()
        states = self.states(4)
        for index, state in enumerate(states):
            checkpointer.checkpoint(state, step=index + 1)
        step, recovered = checkpointer.recover()
        assert step == 4
        assert recovered == states[3]

    def test_recover_without_deltas_returns_anchor(self):
        checkpointer = self.make()
        state = self.states(1)[0]
        checkpointer.checkpoint(state, step=1)
        step, recovered = checkpointer.recover()
        assert (step, recovered) == (1, state)

    def test_recover_empty_returns_none(self):
        assert self.make().recover() is None

    def test_stale_delta_ignored_after_new_anchor(self):
        """A delta referencing an older anchor must not be applied."""
        checkpointer = self.make(anchor_every=2)
        states = self.states(3)
        checkpointer.checkpoint(states[0], step=1)  # full (anchor A)
        checkpointer.checkpoint(states[1], step=2)  # delta on A
        checkpointer.checkpoint(states[2], step=3)  # full (anchor B)
        step, recovered = checkpointer.recover()
        assert step == 3
        assert recovered == states[2]

    def test_invalid_configuration_rejected(self):
        anchors = make_engine(256)
        deltas = make_engine(256)
        with pytest.raises(ConfigError):
            DifferentialCheckpointer(anchors, deltas, page_size=0)
        with pytest.raises(ConfigError):
            DifferentialCheckpointer(anchors, deltas, anchor_every=0)
        with pytest.raises(ConfigError):
            DifferentialCheckpointer(anchors, deltas, max_delta_fraction=0.0)


class TestSharding:
    def test_roundtrip(self):
        state = bytes(range(256)) * 5
        shards = shard_payload(state, 4)
        assert len(shards) == 4
        assert reassemble(shards) == state

    def test_order_independent(self):
        state = b"data" * 100
        shards = shard_payload(state, 3)
        assert reassemble(list(reversed(shards))) == state

    def test_uneven_split(self):
        state = b"x" * 10
        shards = shard_payload(state, 3)
        assert reassemble(shards) == state

    def test_single_shard(self):
        state = b"whole"
        assert reassemble(shard_payload(state, 1)) == state

    def test_missing_shard_rejected(self):
        shards = shard_payload(b"abcdef" * 10, 3)
        with pytest.raises(CorruptCheckpointError):
            reassemble(shards[:2])

    def test_duplicate_shard_rejected(self):
        shards = shard_payload(b"abcdef" * 10, 3)
        with pytest.raises(CorruptCheckpointError):
            reassemble([shards[0], shards[0], shards[2]])

    def test_mixed_versions_rejected(self):
        version_a = shard_payload(b"a" * 30, 3)
        version_b = shard_payload(b"b" * 30, 3)
        with pytest.raises(CorruptCheckpointError):
            reassemble([version_a[0], version_b[1], version_a[2]])

    def test_empty_state(self):
        assert reassemble(shard_payload(b"", 2)) == b""

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigError):
            shard_payload(b"x", 0)

    def test_overhead_is_header_only(self):
        state = b"y" * 1000
        shards = shard_payload(state, 4)
        total = sum(len(s) for s in shards)
        assert total == len(state) + shard_overhead_bytes(4)

    @given(size=st.integers(0, 2000), count=st.integers(1, 9),
           seed=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, size, count, seed):
        rng = np.random.default_rng(seed)
        state = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        shards = shard_payload(state, count)
        order = rng.permutation(count)
        assert reassemble([shards[i] for i in order]) == state

    def test_sharded_distributed_checkpoint_end_to_end(self):
        """K replicas each persist one shard through their own engine;
        recovery gathers consistent shards and reassembles."""
        from repro.core.distributed import (
            CheckpointBarrier,
            DistributedCoordinator,
            DistributedWorker,
        )
        from repro.core.recovery import recover_consistent

        state = np.random.default_rng(0).integers(
            0, 256, size=3000, dtype=np.uint8
        ).tobytes()
        world = 3
        shards = shard_payload(state, world)
        coordinator = DistributedCoordinator(barrier=CheckpointBarrier(world))
        slot_size = max(len(s) for s in shards) + RECORD_SIZE
        geometry = Geometry(num_slots=3, slot_size=slot_size)
        workers = []
        for rank in range(world):
            device = InMemorySSD(geometry.total_size)
            layout = DeviceLayout.format(device, num_slots=3,
                                         slot_size=slot_size)
            workers.append(DistributedWorker.create(rank, layout, coordinator))
        import threading

        threads = [
            threading.Thread(target=worker.checkpoint,
                             args=(shards[worker.rank], 1))
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        consistent = recover_consistent([w.engine.layout for w in workers])
        assert reassemble(consistent.payloads) == state


class TestAnchorToken:
    """The anchor uniqueness token (counter + payload CRC)."""

    STATE_LEN = 1024

    def make(self, **kwargs):
        anchors = make_engine(self.STATE_LEN + 64)
        deltas = make_engine(self.STATE_LEN + 1024)
        kwargs.setdefault("page_size", 128)
        return DifferentialCheckpointer(anchors, deltas, **kwargs)

    def state(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=self.STATE_LEN,
                            dtype=np.uint8).tobytes()

    def test_delta_carries_base_crc(self):
        base = self.state()
        current = bytearray(base)
        current[3] ^= 0xFF
        delta = diff_states(base, bytes(current), 128, base_counter=4)
        import zlib

        assert delta.base_crc == zlib.crc32(base)
        assert decode_delta(encode_delta(delta)).base_crc == delta.base_crc

    def test_counter_collision_with_wrong_crc_rejected(self):
        """A stale same-counter anchor must not satisfy a delta: the
        token's CRC half catches the collision as corruption."""
        checkpointer = self.make()
        base = self.state()
        checkpointer.checkpoint(base, step=1)  # anchor, counter 1
        current = bytearray(base)
        current[0] ^= 0xA5
        # Forge the post-restart hazard: a delta naming the anchor's
        # counter but stamped against a *different* base state.
        forged = diff_states(self.state(seed=9), bytes(current), 128,
                             base_counter=1)
        checkpointer._deltas.checkpoint(encode_delta(forged), step=2)
        with pytest.raises(CorruptCheckpointError,
                           match="same-counter anchor"):
            checkpointer.recover()

    def test_matching_token_recovers(self):
        checkpointer = self.make()
        base = self.state()
        checkpointer.checkpoint(base, step=1)
        current = bytearray(base)
        current[0] ^= 0xA5
        checkpointer.checkpoint(bytes(current), step=2)
        assert checkpointer.recover() == (2, bytes(current))

    def test_mark_resharded_forces_full(self):
        checkpointer = self.make()
        states = [self.state()]
        current = bytearray(states[0])
        current[1] ^= 0x5A
        states.append(bytes(current))
        assert checkpointer.checkpoint(states[0], step=1) == "full"
        checkpointer.mark_resharded()
        # Same length, tiny change — without the reshard mark this
        # would be a delta.
        assert checkpointer.checkpoint(states[1], step=2) == "full"

    def test_adopt_anchor_enables_post_restart_delta(self):
        """Unchanged layout across a restart: adopting the recovered
        anchor avoids a full rewrite, and the stamped token validates."""
        checkpointer = self.make()
        base = self.state()
        result = checkpointer._anchors.checkpoint(base, step=7)
        restarted = DifferentialCheckpointer(
            checkpointer._anchors, checkpointer._deltas, page_size=128
        )
        restarted.adopt_anchor(base, result.counter)
        current = bytearray(base)
        current[2] ^= 0x0F
        assert restarted.checkpoint(bytes(current), step=8) == "delta"
        assert restarted.recover() == (8, bytes(current))

    def test_adopt_anchor_rejects_negative_counter(self):
        with pytest.raises(ConfigError):
            self.make().adopt_anchor(self.state(), -1)
