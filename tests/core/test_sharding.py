"""Tests for data-parallel sharding."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.sharding import reassemble, shard_overhead_bytes, shard_payload
from repro.errors import ConfigError, CorruptCheckpointError
from repro.service.pool import EngineSpec, build_stack
from repro.storage.ssd import InMemorySSD


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
        """K replicas each persist one shard through their own stack;
        recovery gathers consistent shards and reassembles."""
        from repro.core.distributed import (
            DistributedCoordinator,
            DistributedRank,
        )
        from repro.core.recovery import recover_consistent

        state = np.random.default_rng(0).integers(
            0, 256, size=3000, dtype=np.uint8
        ).tobytes()
        world = 3
        shards = shard_payload(state, world)
        coordinator = DistributedCoordinator(world)
        spec = EngineSpec(capacity_bytes=max(len(s) for s in shards))
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
            threading.Thread(target=worker.checkpoint,
                             args=(shards[worker.rank], 1))
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        consistent = recover_consistent([w.stack.layout for w in workers])
        assert reassemble(consistent.payloads) == state
