"""Tests for the global shard manifest and elastic re-partitioning."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.reshard import (
    MERGE,
    PASS_THROUGH,
    SPLIT,
    execute_reshard,
    plan_reshard,
    reshard_shards,
)
from repro.core.sharding import (
    ShardEntry,
    ShardManifest,
    build_manifest,
    decode_manifest,
    decode_shard,
    encode_manifest,
    manifest_for_state,
    manifest_from_shards,
    reassemble,
    shard_payload,
)
from repro.errors import ConfigError, CorruptCheckpointError
from repro.storage.ssd import InMemorySSD

WORLDS = (1, 2, 3, 4, 8)


def state_of(length, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()


class TestManifest:
    def test_for_state_covers_exactly(self):
        state = state_of(1000)
        manifest = manifest_for_state(state, 3)
        manifest.validate()
        assert manifest.total_len == 1000
        assert manifest.num_writers == 3
        assert manifest.entries[0].start == 0
        assert manifest.entries[-1].stop == 1000

    def test_from_shards_matches_for_state(self):
        state = state_of(777)
        shards = shard_payload(state, 4)
        assert manifest_from_shards(shards) == manifest_for_state(state, 4)

    def test_from_shards_any_order(self):
        state = state_of(300)
        shards = shard_payload(state, 3)
        assert (
            manifest_from_shards(list(reversed(shards)))
            == manifest_for_state(state, 3)
        )

    def test_from_mixed_versions_rejected(self):
        a = shard_payload(b"a" * 30, 3)
        b = shard_payload(b"b" * 30, 3)
        with pytest.raises(CorruptCheckpointError):
            manifest_from_shards([a[0], b[1], a[2]])

    def test_encode_decode_roundtrip(self):
        manifest = manifest_for_state(state_of(512), 4)
        assert decode_manifest(encode_manifest(manifest)) == manifest

    def test_tensor_names_roundtrip(self):
        manifest = ShardManifest(
            total_len=10,
            state_crc=7,
            entries=(
                ShardEntry(0, 0, 6, tensor="layer.0.weight"),
                ShardEntry(1, 6, 4, tensor="layer.0.bias"),
            ),
        )
        decoded = decode_manifest(encode_manifest(manifest))
        assert [e.tensor for e in decoded.entries] == [
            "layer.0.weight", "layer.0.bias",
        ]

    def test_every_truncation_rejected(self):
        raw = encode_manifest(manifest_for_state(state_of(256), 3))
        for cut in range(len(raw)):
            with pytest.raises(CorruptCheckpointError):
                decode_manifest(raw[:cut])

    def test_every_single_byte_corruption_rejected(self):
        raw = encode_manifest(manifest_for_state(state_of(128), 2))
        for index in range(len(raw)):
            fuzzed = bytearray(raw)
            fuzzed[index] ^= 0xFF
            with pytest.raises(CorruptCheckpointError):
                decode_manifest(bytes(fuzzed))

    def test_trailing_bytes_rejected(self):
        raw = encode_manifest(manifest_for_state(state_of(64), 2))
        with pytest.raises(CorruptCheckpointError):
            decode_manifest(raw + b"\x00")

    def test_overlapping_ranges_rejected(self):
        manifest = ShardManifest(
            total_len=10,
            state_crc=0,
            entries=(ShardEntry(0, 0, 6), ShardEntry(1, 4, 6)),
        )
        with pytest.raises(CorruptCheckpointError, match="overlap"):
            manifest.validate()

    def test_gapped_ranges_rejected(self):
        manifest = ShardManifest(
            total_len=10,
            state_crc=0,
            entries=(ShardEntry(0, 0, 4), ShardEntry(1, 6, 4)),
        )
        with pytest.raises(CorruptCheckpointError, match="uncovered"):
            manifest.validate()

    def test_short_coverage_rejected(self):
        manifest = ShardManifest(
            total_len=10,
            state_crc=0,
            entries=(ShardEntry(0, 0, 4),),
        )
        with pytest.raises(CorruptCheckpointError, match="covers 4 of 10"):
            manifest.validate()


class TestPlan:
    def test_same_world_is_pass_through(self):
        plan = plan_reshard(manifest_for_state(state_of(100), 4), 4)
        assert plan.kinds == {PASS_THROUGH: 4, SPLIT: 0, MERGE: 0}

    def test_growing_splits(self):
        plan = plan_reshard(manifest_for_state(state_of(1000), 4), 8)
        assert plan.kinds[MERGE] == 0
        assert plan.kinds[SPLIT] == 8

    def test_shrinking_merges(self):
        plan = plan_reshard(manifest_for_state(state_of(1000), 4), 2)
        assert plan.kinds == {PASS_THROUGH: 0, SPLIT: 0, MERGE: 2}

    def test_single_writer_to_many_splits(self):
        plan = plan_reshard(manifest_for_state(state_of(100), 1), 4)
        assert plan.kinds[SPLIT] == 4

    def test_zero_reader_world_rejected(self):
        with pytest.raises(ConfigError):
            plan_reshard(manifest_for_state(state_of(10), 2), 0)

    def test_duplicate_writer_rank_rejected(self):
        manifest = ShardManifest(
            total_len=10,
            state_crc=0,
            entries=(ShardEntry(0, 0, 5), ShardEntry(0, 5, 5)),
        )
        with pytest.raises(CorruptCheckpointError, match="same writer rank"):
            plan_reshard(manifest, 2)

    def test_plan_covers_every_target_byte(self):
        manifest = manifest_for_state(state_of(997), 3)
        plan = plan_reshard(manifest, 5)
        covered = sum(
            piece.length
            for rank_plan in plan.ranks
            for piece in rank_plan.slices
        )
        assert covered == 997
        assert sum(rank_plan.length for rank_plan in plan.ranks) == 997


class TestExecute:
    def test_payload_length_mismatch_rejected(self):
        state = state_of(100)
        manifest = manifest_for_state(state, 2)
        plan = plan_reshard(manifest, 2)
        pieces = [bytes(p) for _, p in map(decode_shard,
                                           shard_payload(state, 2))]
        pieces[1] = pieces[1][:-1]
        with pytest.raises(CorruptCheckpointError, match="promises"):
            execute_reshard(plan, pieces)

    def test_missing_payload_rejected(self):
        state = state_of(100)
        plan = plan_reshard(manifest_for_state(state, 3), 2)
        pieces = [bytes(p) for _, p in map(decode_shard,
                                           shard_payload(state, 3))]
        with pytest.raises(CorruptCheckpointError, match="missing"):
            execute_reshard(plan, pieces[:2])

    def test_extra_payload_rejected(self):
        state = state_of(100)
        plan = plan_reshard(manifest_for_state(state, 2), 2)
        pieces = [bytes(p) for _, p in map(decode_shard,
                                           shard_payload(state, 2))]
        with pytest.raises(CorruptCheckpointError, match="not in the manifest"):
            execute_reshard(plan, pieces + [b"x"])


class TestReshardMatrix:
    @pytest.mark.parametrize("writers", WORLDS)
    @pytest.mark.parametrize("readers", WORLDS)
    def test_bit_identical_across_worlds(self, writers, readers):
        state = state_of(4093, seed=writers * 100 + readers)
        out = reshard_shards(shard_payload(state, writers), readers)
        assert len(out) == readers
        assert reassemble(out) == state

    @pytest.mark.parametrize("writers", WORLDS)
    def test_same_world_returns_bit_identical_shards(self, writers):
        shards = shard_payload(state_of(500), writers)
        assert reshard_shards(shards, writers) == shards

    def test_outputs_are_self_describing(self):
        state = state_of(1000)
        out = reshard_shards(shard_payload(state, 4), 2)
        infos = [decode_shard(shard)[0] for shard in out]
        assert [info.index for info in infos] == [0, 1]
        assert all(info.count == 2 for info in infos)
        assert all(info.total_len == len(state) for info in infos)

    def test_reshard_of_reshard(self):
        state = state_of(2048)
        once = reshard_shards(shard_payload(state, 4), 3)
        twice = reshard_shards(once, 8)
        assert reassemble(twice) == state

    def test_shards_accepted_in_any_order(self):
        state = state_of(700)
        shards = shard_payload(state, 4)
        out = reshard_shards(list(reversed(shards)), 2)
        assert reassemble(out) == state

    def test_state_smaller_than_world(self):
        state = b"ab"
        out = reshard_shards(shard_payload(state, 1), 8)
        assert reassemble(out) == state

    def test_empty_state(self):
        out = reshard_shards(shard_payload(b"", 3), 2)
        assert reassemble(out) == b""

    @given(
        length=st.integers(0, 3000),
        writers=st.sampled_from(WORLDS),
        readers=st.sampled_from(WORLDS),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, length, writers, readers, seed):
        state = state_of(length, seed=seed)
        out = reshard_shards(shard_payload(state, writers), readers)
        assert reassemble(out) == state


class TestElasticRecovery:
    """`recover_consistent(..., world_size=M)` end to end."""

    def run_world(self, payloads, step=1):
        """One rank per payload, checkpointed in lockstep; the layouts."""
        from repro.core.barrier import CheckpointBarrier
        from repro.core.distributed import (
            DistributedCoordinator,
            DistributedRank,
        )
        from repro.service.pool import EngineSpec, build_stack

        world = len(payloads)
        coordinator = DistributedCoordinator(barrier=CheckpointBarrier(world))
        spec = EngineSpec(capacity_bytes=max(len(p) for p in payloads))
        geometry = Geometry(
            num_slots=3, slot_size=spec.capacity_bytes + RECORD_SIZE
        )
        workers = [
            DistributedRank(
                rank,
                build_stack(
                    spec,
                    device=InMemorySSD(geometry.total_size),
                    rank=coordinator.binding(rank),
                ),
                coordinator,
            )
            for rank in range(world)
        ]
        threads = [
            threading.Thread(
                target=worker.checkpoint, args=(payloads[worker.rank], step)
            )
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [worker.stack.layout for worker in workers]

    @pytest.mark.parametrize("readers", (1, 2, 3, 8))
    def test_four_writers_onto_other_worlds(self, readers):
        from repro.core.recovery import recover_consistent

        state = state_of(3000)
        layouts = self.run_world(shard_payload(state, 4))
        result = recover_consistent(layouts, world_size=readers)
        assert result.step == 1
        assert result.world_size == readers
        assert result.writer_world == 4
        assert result.resharded
        assert len(result.payloads) == readers
        assert len(result.metas) == 4
        assert reassemble(result.payloads) == state

    def test_same_world_size_is_not_resharded(self):
        from repro.core.recovery import recover_consistent

        state = state_of(600)
        layouts = self.run_world(shard_payload(state, 2))
        result = recover_consistent(layouts, world_size=2)
        assert not result.resharded
        assert result.payloads == shard_payload(state, 2)

    def test_default_world_size_unchanged(self):
        from repro.core.recovery import recover_consistent

        state = state_of(600)
        layouts = self.run_world(shard_payload(state, 2))
        result = recover_consistent(layouts)
        assert result.world_size == 2
        assert result.writer_world == 2
        assert not result.resharded

    def test_non_sharded_payloads_rejected(self):
        from repro.core.recovery import recover_consistent
        from repro.errors import DistributedError

        layouts = self.run_world([b"plain-0", b"plain-1"])
        with pytest.raises(DistributedError, match="shard_payload"):
            recover_consistent(layouts, world_size=3)

    def test_invalid_world_size_rejected(self):
        from repro.core.recovery import recover_consistent
        from repro.errors import DistributedError

        layouts = self.run_world(shard_payload(state_of(100), 2))
        with pytest.raises(DistributedError):
            recover_consistent(layouts, world_size=0)
