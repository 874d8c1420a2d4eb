"""Tests for elastic re-partitioning over the shard headers.

The headers of a shard set are its whole index: ``TestManifest`` checks
what they describe and how a damaged set is refused, ``TestPlan`` checks
each reader's ``(offset, length)`` and source bytes, and ``TestExecute``
checks the shard sets :func:`reshard_shards` refuses.
"""

import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE, payload_crc
from repro.core.sharding import (
    decode_shard,
    reassemble,
    reshard_shards,
    shard_payload,
)
from repro.errors import ConfigError, CorruptCheckpointError
from repro.storage.ssd import InMemorySSD

WORLDS = (1, 2, 3, 4, 8)

# The on-media shard header: magic, index, count, total_len, offset, digest.
HEADER = struct.Struct("<8sIIQQI")


def state_of(length, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()


def forge(index, count, total_len, offset, piece):
    """A shard with a hand-written header, for sets no writer would make."""
    return HEADER.pack(b"PCSHARD1", index, count, total_len, offset, 0) + piece


def ranges_of(shards):
    """``(offset, length)`` of each shard's piece, in list order."""
    return [
        (info.offset, len(piece))
        for info, piece in map(decode_shard, shards)
    ]


def refused(shards, match=None):
    """Both consumers of a shard set refuse it."""
    with pytest.raises(CorruptCheckpointError, match=match):
        reassemble(shards)
    with pytest.raises(CorruptCheckpointError, match=match):
        reshard_shards(shards, 2)


class TestManifest:
    def test_for_state_covers_exactly(self):
        shards = shard_payload(state_of(1000), 3)
        infos = [decode_shard(shard)[0] for shard in shards]
        assert {(info.count, info.total_len) for info in infos} == {(3, 1000)}
        assert ranges_of(shards) == [(0, 334), (334, 333), (667, 333)]

    def test_from_shards_matches_for_state(self):
        state = state_of(777)
        infos = [decode_shard(shard)[0] for shard in shard_payload(state, 4)]
        assert [info.index for info in infos] == [0, 1, 2, 3]
        assert {info.state_crc for info in infos} == {payload_crc(state)}
        assert [info.offset for info in infos] == [0, 195, 389, 583]

    def test_from_shards_any_order(self):
        shards = shard_payload(state_of(300), 3)
        backwards = list(reversed(shards))
        assert reshard_shards(backwards, 2) == reshard_shards(shards, 2)
        assert reassemble(backwards) == reassemble(shards)

    def test_from_mixed_versions_rejected(self):
        a = shard_payload(b"a" * 30, 3)
        b = shard_payload(b"b" * 30, 3)
        refused([a[0], b[1], a[2]], match="different state versions")

    def test_encode_decode_roundtrip(self):
        state = state_of(512)
        for index, shard in enumerate(shard_payload(state, 4)):
            info, piece = decode_shard(shard)
            assert (info.index, info.count, info.total_len) == (index, 4, 512)
            assert bytes(piece) == state[info.offset : info.offset + 128]

    def test_tensor_names_roundtrip(self):
        tensors = {
            "layer.0.weight": np.arange(60, dtype=np.float32),
            "layer.0.bias": np.arange(7, dtype=np.float64),
        }
        state = b"".join(t.tobytes() for t in tensors.values())
        out = reshard_shards(shard_payload(state, 3), 2)
        decoded = sorted(map(decode_shard, out), key=lambda p: p[0].offset)
        joined = b"".join(piece for _, piece in decoded)
        weight = np.frombuffer(joined, np.float32, count=60)
        bias = np.frombuffer(joined, np.float64, offset=240)
        assert np.array_equal(weight, tensors["layer.0.weight"])
        assert np.array_equal(bias, tensors["layer.0.bias"])

    def test_every_truncation_rejected(self):
        shards = shard_payload(state_of(64), 3)
        for cut in range(HEADER.size):
            with pytest.raises(CorruptCheckpointError, match="truncated"):
                decode_shard(shards[0][:cut])
        for cut in range(len(shards[0])):
            refused([shards[0][:cut], shards[1], shards[2]])

    def test_every_single_byte_corruption_rejected(self):
        shards = shard_payload(state_of(128), 2)
        for index in range(len(shards[0])):
            fuzzed = bytearray(shards[0])
            fuzzed[index] ^= 0xFF
            with pytest.raises(CorruptCheckpointError):
                reassemble([bytes(fuzzed), shards[1]])
        with pytest.raises(CorruptCheckpointError, match="not a PCcheck"):
            decode_shard(b"PCSHARD2" + shards[0][8:])
        # A digest every shard agrees on is still checked against the state.
        digest = slice(HEADER.size - 4, HEADER.size)
        wrong = [s[: digest.start] + b"\0\0\0\0" + s[digest.stop :]
                 for s in shards]
        with pytest.raises(CorruptCheckpointError, match="digest"):
            reassemble(wrong)

    def test_trailing_bytes_rejected(self):
        shards = shard_payload(state_of(64), 2)
        refused([shards[0] + b"\x00", shards[1]], match="overlap")
        refused([shards[0], shards[1] + b"\x00"], match="cover 65 of 64")

    def test_overlapping_ranges_rejected(self):
        shards = [forge(0, 2, 10, 0, b"x" * 6), forge(1, 2, 10, 4, b"y" * 6)]
        refused(shards, match="overlap")

    def test_gapped_ranges_rejected(self):
        shards = [forge(0, 2, 10, 0, b"x" * 4), forge(1, 2, 10, 6, b"y" * 4)]
        refused(shards, match="uncovered")

    def test_short_coverage_rejected(self):
        refused([forge(0, 1, 10, 0, b"x" * 4)], match="cover 4 of 10")


class TestPlan:
    def test_same_world_is_pass_through(self):
        shards = shard_payload(state_of(100), 4)
        out = reshard_shards(shards, 4)
        assert ranges_of(out) == ranges_of(shards)
        assert out == shards

    def test_growing_splits(self):
        state = state_of(1000)
        out = reshard_shards(shard_payload(state, 4), 8)
        # Every writer's 250 bytes feed two readers of 125.
        assert ranges_of(out) == [(125 * r, 125) for r in range(8)]
        for info, piece in map(decode_shard, out):
            assert bytes(piece) == state[info.offset : info.offset + 125]

    def test_shrinking_merges(self):
        state = state_of(1000)
        writers = shard_payload(state, 4)
        out = reshard_shards(writers, 2)
        assert ranges_of(out) == [(0, 500), (500, 500)]
        pieces = [bytes(piece) for _, piece in map(decode_shard, writers)]
        assert bytes(decode_shard(out[0])[1]) == pieces[0] + pieces[1]
        assert bytes(decode_shard(out[1])[1]) == pieces[2] + pieces[3]

    def test_single_writer_to_many_splits(self):
        state = state_of(100)
        out = reshard_shards(shard_payload(state, 1), 4)
        assert ranges_of(out) == [(0, 25), (25, 25), (50, 25), (75, 25)]
        assert [bytes(piece) for _, piece in map(decode_shard, out)] == [
            state[i : i + 25] for i in (0, 25, 50, 75)
        ]

    def test_zero_reader_world_rejected(self):
        with pytest.raises(ConfigError):
            reshard_shards(shard_payload(state_of(10), 2), 0)

    def test_duplicate_writer_rank_rejected(self):
        shards = [forge(0, 2, 10, 0, b"x" * 5), forge(0, 2, 10, 5, b"y" * 5)]
        refused(shards, match="do not cover")

    def test_plan_covers_every_target_byte(self):
        state = state_of(997)
        out = reshard_shards(shard_payload(state, 3), 5)
        ranges = ranges_of(out)
        assert ranges == [(0, 200), (200, 200), (400, 199), (599, 199),
                          (798, 199)]
        for info, piece in map(decode_shard, out):
            assert bytes(piece) == state[info.offset : info.offset + len(piece)]


class TestExecute:
    def test_payload_length_mismatch_rejected(self):
        # Same count, one byte shorter: a shard of another state version.
        state = state_of(100)
        shards = shard_payload(state, 2)
        shorter = shard_payload(state[:-1], 2)
        refused([shards[0], shorter[1]], match="different state versions")

    def test_missing_payload_rejected(self):
        shards = shard_payload(state_of(100), 3)
        refused(shards[:2], match="expected 3 shards, got 2")

    def test_extra_payload_rejected(self):
        shards = shard_payload(state_of(100), 2)
        refused(shards + [shards[1]], match="expected 2 shards, got 3")
        refused([shards[0], shards[0]], match="do not cover")


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

    def test_same_world_output_is_in_rank_order(self):
        shards = shard_payload(state_of(500), 4)
        out = reshard_shards(list(reversed(shards)), 4)
        assert [decode_shard(shard)[0].index for shard in out] == [0, 1, 2, 3]
        assert out == shards

    @pytest.mark.parametrize("readers", (1, 3, 8))
    def test_each_byte_is_copied_once(self, readers):
        state = state_of(8 << 20)
        shards = shard_payload(state, 4)
        tracemalloc.start()
        try:
            out = reshard_shards(shards, readers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * len(state)
        assert reassemble(out) == state

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
        from repro.core.distributed import (
            DistributedCoordinator,
            DistributedRank,
        )
        from repro.service.pool import EngineSpec, build_stack

        world = len(payloads)
        coordinator = DistributedCoordinator(world)
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

    def test_resharded_payloads_are_read_only(self):
        from repro.core.recovery import recover_consistent

        layouts = self.run_world(shard_payload(state_of(900), 2))
        result = recover_consistent(layouts, world_size=3)
        for payload in result.payloads:
            view = memoryview(payload)
            assert view.readonly
            with pytest.raises(TypeError):
                view[0] = 0

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
