"""Tests for the Trainer loop, datasets, and failure injection."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.storage.dram import PinnedBuffer
from repro.training.data import SyntheticImages, SyntheticRegression, SyntheticTokens
from repro.training.loop import FailureInjection, Trainer
from repro.training.losses import mse, softmax_cross_entropy
from repro.training.models import MLP, TransformerLM
from repro.training.optim import SGD, Adam
from repro.training.state import deserialize_state


def make_trainer(strategy=None, interval=5, seed=0):
    model = MLP([32, 16, 10], np.random.default_rng(seed))
    optimizer = SGD(model, lr=0.05)
    data = SyntheticRegression(batch_size=8, in_dim=32, out_dim=10, seed=seed)
    return Trainer(
        model, optimizer, data, strategy=strategy,
        checkpoint_interval=interval, loss_fn=mse,
    )


class TestDatasets:
    def test_images_batches_are_deterministic(self):
        data = SyntheticImages(batch_size=4, seed=1)
        x1, y1 = data.batch(7)
        x2, y2 = data.batch(7)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_images_batches_differ_by_index(self):
        data = SyntheticImages(batch_size=4, seed=1)
        x1, _ = data.batch(0)
        x2, _ = data.batch(1)
        assert not np.array_equal(x1, x2)

    def test_tokens_shapes_and_range(self):
        data = SyntheticTokens(batch_size=3, seq_len=16, vocab_size=50)
        ids, targets = data.batch(0)
        assert ids.shape == (3, 16)
        assert targets.shape == (3, 16)
        assert ids.max() < 50 and ids.min() >= 0

    def test_tokens_targets_are_shifted_inputs(self):
        data = SyntheticTokens(batch_size=2, seq_len=8, vocab_size=64, seed=3)
        ids, targets = data.batch(5)
        np.testing.assert_array_equal(ids[:, 1:], targets[:, :-1])

    def test_iteration_protocol(self):
        data = SyntheticImages(batch_size=2)
        iterator = iter(data)
        first = next(iterator)
        second = next(iterator)
        np.testing.assert_array_equal(first[0], data.batch(0)[0])
        np.testing.assert_array_equal(second[0], data.batch(1)[0])

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(TrainingError):
            SyntheticImages(batch_size=0)

    def test_short_sequences_rejected(self):
        with pytest.raises(TrainingError):
            SyntheticTokens(seq_len=1)


class TestTrainerBasics:
    def test_loss_decreases_on_regression(self):
        trainer = make_trainer()
        report = trainer.train(80)
        assert report.steps_run == 80
        assert report.losses[-1] < report.losses[0]

    def test_step_counter_advances(self):
        trainer = make_trainer()
        trainer.train(10)
        assert trainer.step == 10
        trainer.train(5)
        assert trainer.step == 15

    def test_lm_training_decreases_loss(self):
        model = TransformerLM(
            np.random.default_rng(0), vocab_size=32, dim=16, num_heads=2,
            num_layers=1, max_seq=16,
        )
        optimizer = Adam(model, lr=3e-3)
        data = SyntheticTokens(batch_size=4, seq_len=12, vocab_size=32)
        trainer = Trainer(model, optimizer, data, loss_fn=softmax_cross_entropy)
        report = trainer.train(30)
        early = float(np.mean(report.losses[:5]))
        late = float(np.mean(report.losses[-5:]))
        assert late < early

    def test_invalid_interval_rejected(self):
        with pytest.raises(TrainingError):
            make_trainer(interval=0)

    def test_throughput_reported(self):
        report = make_trainer().train(10)
        assert report.throughput > 0
        assert report.wall_seconds > 0

    def test_serialized_state_copies_the_state_once(self):
        """The traced allocation peak is the one serialized copy, and
        the bytes are what the zero-copy source stages — a private copy
        a later update does not reach."""
        model = MLP([256, 512, 256], np.random.default_rng(6))
        optimizer = Adam(model, lr=1e-3)
        data = SyntheticRegression(batch_size=4, in_dim=256, out_dim=256,
                                   seed=6)
        trainer = Trainer(model, optimizer, data, loss_fn=mse)
        trainer.train(2)
        source = trainer.state_source()
        size = source.snapshot_size()
        staged = PinnedBuffer(0, size)
        source.capture_chunk(0, size, staged)
        tracemalloc.start()
        try:
            blob = trainer.serialized_state()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(blob) == size
        assert peak <= 1.05 * size, f"peak {peak} for a {size}-byte state"
        assert blob == bytes(staged.view())
        trainer.train(1)  # the live arrays move on; the copy does not
        assert trainer.serialized_state() != blob
        assert bytes(blob) == bytes(staged.view())


class TestFailureInjectionAndResume:
    def test_failure_raises_at_requested_step(self):
        trainer = make_trainer()
        with pytest.raises(FailureInjection):
            trainer.train(50, fail_at_step=12)
        assert trainer.step == 12

    def test_resume_reproduces_uninterrupted_run(self):
        """Crash + resume from a checkpoint == the uninterrupted run,
        bit for bit (deterministic batches, no dropout)."""
        reference = make_trainer(seed=4)
        reference.train(30)
        reference_weights = reference.model.state_dict()

        crashed = make_trainer(seed=4)
        crashed.train(18)
        saved = crashed.serialized_state()
        # Lose some work after the checkpoint, then "crash".
        crashed.train(4)

        resumed = make_trainer(seed=4)
        resumed.resume_from(deserialize_state(saved))
        assert resumed.step == 18
        resumed.train(12)
        for key, value in resumed.model.state_dict().items():
            np.testing.assert_array_equal(value, reference_weights[key])

    def test_resume_restores_optimizer_moments(self):
        trainer = make_trainer(seed=5)
        trainer.optimizer = Adam(trainer.model, lr=1e-3)
        trainer.train(7)
        saved = trainer.serialized_state()
        state = deserialize_state(saved)
        fresh = make_trainer(seed=5)
        fresh.optimizer = Adam(fresh.model, lr=1e-3)
        fresh.resume_from(state)
        assert fresh.optimizer.steps == trainer.optimizer.steps
