#!/usr/bin/env python3
"""Quickstart: train a model, checkpoint with PCcheck, crash, resume.

Runs a small MLP regression with the concurrent checkpointer persisting
to a real file every 5 iterations, simulates a process crash by throwing
everything in memory away, then reopens the file, recovers the newest
checkpoint, and finishes training — verifying the resumed run matches an
uninterrupted reference bit for bit.

Usage::

    python examples/quickstart.py
"""

import os
import tempfile

import numpy as np

from repro import open_checkpointer
from repro.training.data import SyntheticRegression
from repro.training.loop import Trainer
from repro.training.losses import mse
from repro.training.models import MLP
from repro.training.optim import Adam
from repro.training.state import deserialize_state


def make_trainer(seed: int = 7) -> Trainer:
    model = MLP([32, 24, 8], np.random.default_rng(seed))
    optimizer = Adam(model, lr=1e-2)
    data = SyntheticRegression(batch_size=8, in_dim=32, out_dim=8, seed=seed)
    return Trainer(model, optimizer, data, loss_fn=mse)


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="pccheck-quickstart-")
    path = os.path.join(workdir, "model.pc")
    capacity = len(make_trainer().serialized_state()) + 1024

    print("=== phase 1: train with concurrent checkpointing ===")
    trainer = make_trainer()
    with open_checkpointer(path, capacity_bytes=capacity,
                           num_concurrent=2, writer_threads=3) as ckpt:
        for step in range(1, 24):
            # state_source() aliases the live weights, so an in-flight
            # capture must finish before the next update touches them.
            # (A Trainer driving a CheckpointStrategy places this gate
            # between backward and the optimizer step by itself.)
            ckpt.wait_for_snapshots()
            loss = trainer.train_step()
            if step % 5 == 0:
                # Non-blocking and copy-free on this thread: the engine's
                # staging copy reads the parameter arrays directly, and
                # training continues while threads persist.
                ckpt.checkpoint_async(trainer.state_source(), step=step)
                print(f"  step {step:3d}  loss {loss:.4f}  checkpoint scheduled")
        ckpt.wait()
        stats = ckpt.metrics()["pccheck_commits_total"]["series"][0]
        print(f"  committed {int(stats['value'])} checkpoints "
              f"(latest at step {ckpt.latest().step})")
    print(f"  ... process 'crashes' at step {trainer.step}; memory lost\n")

    print("=== phase 2: recover and resume ===")
    resumed = make_trainer()
    with open_checkpointer(path, capacity_bytes=capacity) as ckpt:
        assert ckpt.recovered is not None, "no checkpoint found!"
        state = deserialize_state(ckpt.recovered.payload)
        resumed.resume_from(state)
        print(f"  recovered checkpoint at step {state.step} "
              f"(source: {ckpt.recovered.source})")
        resumed.train(40 - resumed.step)
    print(f"  resumed training to step {resumed.step}\n")

    print("=== phase 3: verify against an uninterrupted run ===")
    reference = make_trainer()
    reference.train(40)
    for key, value in reference.model.state_dict().items():
        np.testing.assert_array_equal(value, resumed.model.state_dict()[key])
    print("  resumed weights are bit-identical to the reference. done.")


if __name__ == "__main__":
    main()
