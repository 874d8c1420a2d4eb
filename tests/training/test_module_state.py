"""Tests for module traversal, state dicts, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptCheckpointError, TrainingError
from repro.training.layers import Linear, ReLU, Sequential
from repro.training.models import MLP, TransformerLM, build_model
from repro.training.module import Parameter
from repro.training.optim import Adam
from repro.training.state import (
    TrainingState,
    capture_state,
    checkpoint_nbytes,
    deserialize_state,
    ensure_same_graph,
    restore_state,
    serialize_state,
    states_equal,
)

RNG = np.random.default_rng(1)


class TestModuleTraversal:
    def test_named_parameters_are_dotted(self):
        model = MLP([4, 8, 2], RNG)
        names = [name for name, _ in model.named_parameters()]
        assert "net.layers.0.weight" in names
        assert "net.layers.0.bias" in names
        assert "net.layers.2.weight" in names

    def test_num_parameters(self):
        model = MLP([4, 8, 2], RNG)
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_nbytes_is_float32(self):
        model = MLP([4, 8, 2], RNG)
        assert model.state_nbytes() == 4 * model.num_parameters()

    def test_zero_grad(self):
        model = MLP([4, 8, 2], RNG)
        for param in model.parameters():
            param.grad.fill(1.0)
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())

    def test_transformer_blocks_discovered_in_list(self):
        model = TransformerLM(RNG, vocab_size=16, dim=8, num_heads=2,
                              num_layers=2, max_seq=4)
        names = [name for name, _ in model.named_parameters()]
        assert any(name.startswith("blocks.0.") for name in names)
        assert any(name.startswith("blocks.1.") for name in names)

    def test_train_eval_mode_propagates(self):
        model = MLP([4, 8, 2], RNG)
        model.eval()
        assert not model.net.training
        model.train()
        assert model.net.training


class TestStateDict:
    def test_roundtrip_restores_values(self):
        model = MLP([4, 8, 2], RNG)
        saved = model.state_dict()
        for param in model.parameters():
            param.data += 1.0
        model.load_state_dict(saved)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, saved[name])

    def test_state_dict_is_a_copy(self):
        model = MLP([4, 8, 2], RNG)
        saved = model.state_dict()
        for param in model.parameters():
            param.data += 1.0
        for name, value in saved.items():
            assert not np.array_equal(value, dict(model.named_parameters())[name].data)

    def test_missing_key_rejected(self):
        model = MLP([4, 8, 2], RNG)
        saved = model.state_dict()
        saved.pop(next(iter(saved)))
        with pytest.raises(TrainingError):
            model.load_state_dict(saved)

    def test_unexpected_key_rejected(self):
        model = MLP([4, 8, 2], RNG)
        saved = model.state_dict()
        saved["ghost"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(TrainingError):
            model.load_state_dict(saved)

    def test_shape_mismatch_rejected(self):
        model = MLP([4, 8, 2], RNG)
        saved = model.state_dict()
        key = next(iter(saved))
        saved[key] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(TrainingError):
            model.load_state_dict(saved)


class TestSerialization:
    def test_capture_serialize_roundtrip(self):
        model = MLP([4, 8, 2], RNG)
        optimizer = Adam(model, lr=1e-3)
        state = capture_state(model, optimizer, step=17)
        decoded = deserialize_state(serialize_state(state))
        assert states_equal(state, decoded)
        assert decoded.step == 17

    def test_serialization_is_deterministic(self):
        model = MLP([4, 8, 2], RNG)
        state = capture_state(model, step=3)
        assert serialize_state(state) == serialize_state(state)

    def test_restore_resumes_exactly(self):
        model = MLP([4, 8, 2], RNG)
        optimizer = Adam(model, lr=1e-2)
        # Take a few optimizer steps so moments are non-trivial.
        for _ in range(3):
            for param in model.parameters():
                param.grad[...] = RNG.standard_normal(param.shape)
            optimizer.step()
        saved = serialize_state(capture_state(model, optimizer, step=3))
        clone = MLP([4, 8, 2], np.random.default_rng(99))
        clone_opt = Adam(clone, lr=1e-2)
        restore_state(deserialize_state(saved), clone, clone_opt)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert clone_opt.steps == optimizer.steps

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            deserialize_state(b"NOTSTATE" + bytes(100))

    def test_truncated_header_rejected(self):
        model = MLP([4, 4, 2], RNG)
        raw = serialize_state(capture_state(model))
        with pytest.raises(CorruptCheckpointError):
            deserialize_state(raw[:16])

    def test_truncated_payload_rejected(self):
        model = MLP([4, 4, 2], RNG)
        raw = serialize_state(capture_state(model))
        with pytest.raises(CorruptCheckpointError):
            deserialize_state(raw[:-10])

    def test_checkpoint_nbytes_matches_serialized_length(self):
        model = MLP([4, 8, 2], RNG)
        optimizer = Adam(model)
        raw = serialize_state(capture_state(model, optimizer))
        assert checkpoint_nbytes(model, optimizer) == len(raw)

    def test_ensure_same_graph_detects_mismatch(self):
        model = MLP([4, 8, 2], RNG)
        other = MLP([4, 6, 2], np.random.default_rng(5))
        state = capture_state(other)
        # Same layer names but different shapes pass the graph check...
        ensure_same_graph(model, state)
        # ...while a structurally different model fails it.
        deeper = MLP([4, 8, 8, 2], np.random.default_rng(6))
        with pytest.raises(TrainingError):
            ensure_same_graph(deeper, state)

    @given(step=st.integers(0, 2**31), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, step, seed):
        rng = np.random.default_rng(seed)
        tensors = {
            "model/w": rng.standard_normal((3, 4)).astype(np.float32),
            "model/b": rng.standard_normal(4).astype(np.float32),
            "optim/steps": np.array([step], dtype=np.int64),
        }
        state = TrainingState(step=step, tensors=tensors)
        assert states_equal(state, deserialize_state(serialize_state(state)))


class TestModelZoo:
    def test_build_known_models(self):
        for name in ("vgg16", "bert", "opt_350m", "mlp"):
            model = build_model(name, seed=0)
            assert model.num_parameters() > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(TrainingError):
            build_model("gpt-17")

    def test_same_seed_same_weights(self):
        a = build_model("mlp", seed=3)
        b = build_model("mlp", seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestParameter:
    def test_parameter_is_float32_contiguous(self):
        param = Parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert param.data.dtype == np.float32
        assert param.data.flags["C_CONTIGUOUS"]
        assert param.shape == (2, 3)
        assert param.size == 6

    def test_sequential_getitem_len(self):
        seq = Sequential([Linear(2, 2, RNG), ReLU()])
        assert len(seq) == 2
        assert isinstance(seq[1], ReLU)


class TestTrainingStateSource:
    def _state(self):
        return TrainingState(step=7, tensors={
            "model/w": RNG.standard_normal((13, 5)),
            "model/b": RNG.standard_normal(5).astype(np.float32),
            "optim/m": RNG.standard_normal((13, 5)),
        })

    def test_size_matches_serialized_bytes(self):
        from repro.training.state import TrainingStateSource

        state = self._state()
        source = TrainingStateSource(state)
        assert source.snapshot_size() == len(serialize_state(state))

    @pytest.mark.parametrize("chunk_size", [17, 64, 1000, 1 << 20])
    def test_gather_matches_serialize_byte_for_byte(self, chunk_size):
        from repro.core.chunking import plan_chunks
        from repro.storage.dram import PinnedBuffer
        from repro.training.state import TrainingStateSource

        state = self._state()
        blob = serialize_state(state)
        source = TrainingStateSource(state)
        gathered = bytearray()
        for offset, length in plan_chunks(len(blob), chunk_size):
            buffer = PinnedBuffer(0, max(chunk_size, 1))
            source.capture_chunk(offset, length, buffer)
            gathered += buffer.view()
        assert bytes(gathered) == blob
        assert states_equal(deserialize_state(bytes(gathered)), state)

    def test_out_of_range_capture_rejected(self):
        from repro.storage.dram import PinnedBuffer
        from repro.training.state import TrainingStateSource

        source = TrainingStateSource(self._state())
        with pytest.raises(TrainingError):
            source.capture_chunk(source.snapshot_size() - 4, 8,
                                 PinnedBuffer(0, 64))

    def test_source_aliases_tensor_memory(self):
        from repro.storage.dram import PinnedBuffer
        from repro.training.state import TrainingStateSource

        state = self._state()
        source = TrainingStateSource(state)
        blob = serialize_state(state)
        # Mutate a tensor after building the source: the captured bytes
        # must reflect the new value (views alias, they do not copy).
        state.tensors["model/w"][0, 0] = 123.0
        buffer = PinnedBuffer(0, source.snapshot_size())
        source.capture_chunk(0, source.snapshot_size(), buffer)
        assert bytes(buffer.view()) != blob
        assert states_equal(
            deserialize_state(bytes(buffer.view())), state
        )

    def test_loop_state_source_roundtrip(self):
        from repro.storage.dram import PinnedBuffer
        from repro.training.loop import Trainer

        model = MLP([4, 8, 2], RNG)
        optimizer = Adam(model)
        data = _RandomBatches()
        loop = Trainer(model, optimizer, data, checkpoint_interval=10)
        source = loop.state_source()
        blob = loop.serialized_state()
        assert source.snapshot_size() == len(blob)
        buffer = PinnedBuffer(0, len(blob))
        source.capture_chunk(0, len(blob), buffer)
        assert bytes(buffer.view()) == blob


    @pytest.mark.parametrize("scheduled", [False, True],
                             ids=["no-sched", "sched"])
    @pytest.mark.parametrize("optimizer_name", ["sgd", "adam", "adamw"])
    def test_live_source_yields_serialized_state_without_copying(
        self, optimizer_name, scheduled
    ):
        from repro.storage.dram import PinnedBuffer
        from repro.training.loop import Trainer
        from repro.training.optim import SGD, AdamW
        from repro.training.schedule import StepDecaySchedule

        model = MLP([4, 8, 2], np.random.default_rng(3))
        optimizer = {
            "sgd": lambda: SGD(model, lr=0.05, momentum=0.9),
            "adam": lambda: Adam(model),
            "adamw": lambda: AdamW(model),
        }[optimizer_name]()
        scheduler = StepDecaySchedule(optimizer, every=2) if scheduled else None
        loop = Trainer(model, optimizer, _RandomBatches(),
                       checkpoint_interval=10, scheduler=scheduler)
        loop.train(3)  # non-trivial moments, step count and LR position
        source = loop.state_source()
        blob = loop.serialized_state()
        assert source.snapshot_size() == len(blob)
        buffer = PinnedBuffer(0, len(blob))
        source.capture_chunk(0, len(blob), buffer)
        assert bytes(buffer.view()) == blob
        # Live means live: every large segment is the parameter's (or the
        # moment's) own memory, where capture() holds private copies.
        live = [array for array in optimizer.state_tensors().values()]
        live += [param.data for param in model.parameters()]
        segments = [np.frombuffer(seg, dtype=np.uint8)
                    for seg in source._segments[1:]]
        for array in live:
            if array.size > 1:
                assert any(np.shares_memory(array, seg) for seg in segments)
        copies = loop.capture().tensors.values()
        assert not any(np.shares_memory(copy, array)
                       for copy in copies for array in live)
        # ... and sizing helpers no longer copy to count.
        assert optimizer.state_nbytes() == sum(
            value.nbytes for value in optimizer.state_dict().values())
        assert checkpoint_nbytes(model, optimizer) == len(
            serialize_state(capture_state(model, optimizer)))


class _RandomBatches:
    def batch(self, step):
        rng = np.random.default_rng(step)
        return rng.standard_normal((2, 4)), rng.integers(0, 2, 2)
