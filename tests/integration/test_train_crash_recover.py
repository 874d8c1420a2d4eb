"""End-to-end integration: train → checkpoint → crash → recover → resume.

These tests wire every functional layer together: the numpy training
stack produces real model+optimizer state, a strategy persists it through
the concurrent engine onto a (crashable or file-backed) device, a failure
loses the in-memory state, and recovery restores training exactly.
"""

import numpy as np
import pytest

from repro import open_checkpointer
from repro.baselines import CheckpointStrategy, build_strategy
from repro.core.config import PCcheckConfig
from repro.core.recovery import load_validated, recover, valid_checkpoints
from repro.core.snapshot import BytesSource
from repro.errors import NoCheckpointError
from repro.obs.metrics import M
from repro.storage.ssd import InMemorySSD
from repro.training.data import SyntheticRegression
from repro.training.loop import FailureInjection, Trainer
from repro.training.losses import mse
from repro.training.models import MLP
from repro.training.optim import Adam
from repro.training.state import deserialize_state


def make_trainer(strategy=None, seed=0, interval=5):
    model = MLP([16, 12, 4], np.random.default_rng(seed))
    optimizer = Adam(model, lr=1e-2)
    data = SyntheticRegression(batch_size=4, in_dim=16, out_dim=4, seed=seed)
    return Trainer(model, optimizer, data, strategy=strategy,
                   checkpoint_interval=interval, loss_fn=mse)


def payload_capacity(seed=0):
    trainer = make_trainer(seed=seed)
    return len(trainer.serialized_state()) + 256


@pytest.mark.parametrize("name", ["naive", "checkfreq", "gpm", "pccheck"])
def test_crash_resume_equals_uninterrupted_run(name):
    capacity = payload_capacity()
    strategy = build_strategy(name, InMemorySSD, capacity)
    trainer = make_trainer(strategy=strategy, seed=0, interval=5)
    with pytest.raises(FailureInjection):
        trainer.train(40, fail_at_step=23)
    strategy.drain()
    recovered = recover(strategy.layout)
    state = deserialize_state(recovered.payload)
    assert state.step == 20  # newest checkpoint boundary before step 23

    resumed = make_trainer(strategy=None, seed=0)
    resumed.resume_from(state)
    resumed.train(40 - state.step)

    reference = make_trainer(strategy=None, seed=0)
    reference.train(40)
    for key, value in reference.model.state_dict().items():
        np.testing.assert_array_equal(value, resumed.model.state_dict()[key])


def test_pccheck_recovery_after_device_crash_mid_training():
    """Power loss mid-run on the backing device: the strategy's durable
    state still satisfies the recovery invariant."""
    capacity = payload_capacity()
    device_holder = {}

    def factory(size):
        device_holder["device"] = InMemorySSD(size)
        return device_holder["device"]

    strategy = build_strategy("pccheck", factory, capacity)
    trainer = make_trainer(strategy=strategy, seed=1, interval=3)
    trainer.train(12)
    strategy.drain()
    device = device_holder["device"]
    device.crash()
    device.recover()
    from repro.core.layout import DeviceLayout

    recovered = recover(DeviceLayout.open(device))
    state = deserialize_state(recovered.payload)
    assert state.step == 12
    fresh = make_trainer(seed=1)
    fresh.resume_from(state)
    assert fresh.step == 12


def test_open_checkpointer_end_to_end(tmp_path):
    """The public one-call API against a real file."""
    path = str(tmp_path / "ckpt.pc")
    trainer = make_trainer(seed=3)
    capacity = len(trainer.serialized_state()) + 256

    with open_checkpointer(path, capacity_bytes=capacity, num_concurrent=2) as ckpt:
        assert ckpt.recovered is None
        trainer.train(6)
        ckpt.orchestrator.checkpoint_sync(
            BytesSource(trainer.serialized_state()), step=trainer.step
        )

    # "Restart the process": reopen the same file.
    with open_checkpointer(path, capacity_bytes=capacity, num_concurrent=2) as ckpt:
        assert ckpt.recovered is not None
        state = deserialize_state(ckpt.recovered.payload)
        assert state.step == 6
        resumed = make_trainer(seed=3)
        resumed.resume_from(state)
        resumed.train(4)
        ckpt.orchestrator.checkpoint_sync(
            BytesSource(resumed.serialized_state()), step=resumed.step
        )

    with open_checkpointer(path, capacity_bytes=capacity) as ckpt:
        assert deserialize_state(ckpt.recovered.payload).step == 10


def test_recover_empty_file_region(tmp_path):
    path = str(tmp_path / "empty.pc")
    with open_checkpointer(path, capacity_bytes=1024) as ckpt:
        assert ckpt.recovered is None
        with pytest.raises(NoCheckpointError):
            recover(ckpt.layout)


def test_checkpoint_every_iteration_makes_progress():
    """Even at f=1 (the paper's most aggressive frequency) PCcheck keeps
    training correct, just slower."""
    capacity = payload_capacity()
    strategy = build_strategy("pccheck", InMemorySSD, capacity)
    trainer = make_trainer(strategy=strategy, seed=2, interval=1)
    report = trainer.train(10)
    assert report.steps_run == 10
    strategy.drain()
    recovered = recover(strategy.layout)
    assert deserialize_state(recovered.payload).step == 10
    strategy.close()


class _RecordingStrategy(CheckpointStrategy):
    """Forwards to ``inner``; keeps a private copy of what each
    checkpoint *should* persist, taken on the training thread."""

    name = "recording"

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.trainer = None
        self.expected = {}

    def before_update(self):
        self.inner.before_update()

    def checkpoint(self, state, step):
        self.expected[step] = self.trainer.serialized_state()
        self.inner.checkpoint(state, step)

    def drain(self):
        self.inner.drain()


def test_live_source_is_consistent_while_capture_overlaps_training():
    """The trainer hands PCcheck views of the live weights.  On a slow
    device the capture (it waits for staging chunks to drain) is still
    running when the next iteration reaches the T→U boundary: the update
    must stall there, and what lands on the device must be the state of
    the checkpoint's own step, bit for bit — never a later update's."""
    capacity = payload_capacity()
    # ~2.7 KB state in 256 B chunks through a 2-chunk pool at 100 KB/s:
    # a capture takes ~25 ms, an iteration of this model well under 1 ms.
    config = PCcheckConfig(num_concurrent=2, writer_threads=1,
                           chunk_size=256, num_chunks=2)
    inner = build_strategy(
        "pccheck", lambda size: InMemorySSD(size, write_bandwidth=100e3),
        capacity, config=config,
    )
    strategy = _RecordingStrategy(inner)
    trainer = make_trainer(strategy=strategy, seed=5, interval=1)
    strategy.trainer = trainer
    steps = 6
    trainer.train(steps)
    assert sorted(strategy.expected) == list(range(1, steps + 1))
    # Captures really were in flight at the boundary (a no-op wait costs
    # microseconds; five gated updates behind ~25 ms captures do not).
    assert inner.stats.update_block_seconds > 0.02
    stalled = inner.orchestrator.engine.metrics.value(M.UPDATE_STALL_SECONDS)
    assert stalled > 0.02
    survivors = valid_checkpoints(inner.layout)
    assert steps in {meta.step for meta in survivors}
    assert len(survivors) >= 2
    for meta in survivors:
        payload = bytes(load_validated(inner.layout, meta))
        assert payload == strategy.expected[meta.step]
    inner.close()
