#!/usr/bin/env python3
"""Distributed checkpointing: pipeline-parallel workers, one straggler.

Four workers (threads standing in for nodes) each checkpoint their model
partition through their own stack — the ordinary single-node stack, built
with the coordinator's binding for its rank.  The paper's rank-0 coordination
round runs after every successful CAS and *before* the superseded slot
is recycled, so a globally consistent step always survives — even when
one worker dies mid-run, as demonstrated here.

Usage::

    python examples/distributed_training.py
"""

import threading

import numpy as np

from repro.core.distributed import DistributedCoordinator, DistributedRank
from repro.core.recovery import recover_consistent
from repro.errors import DistributedError
from repro.service.pool import EngineSpec, build_stack
from repro.training.models import TransformerLM
from repro.training.state import capture_state, serialize_state

WORLD_SIZE = 4


def build_partition(rank: int) -> TransformerLM:
    """Each pipeline stage owns a transformer block stack of its own."""
    return TransformerLM(
        np.random.default_rng(rank), vocab_size=64, dim=32, num_heads=2,
        num_layers=1, max_seq=16,
    )


def main() -> None:
    partitions = [build_partition(rank) for rank in range(WORLD_SIZE)]
    payloads = {
        rank: serialize_state(capture_state(model, step=0))
        for rank, model in enumerate(partitions)
    }
    spec = EngineSpec(
        capacity_bytes=max(len(p) for p in payloads.values()) + 1024,
        backend="pmem",
    )

    coordinator = DistributedCoordinator(WORLD_SIZE, timeout=1.0)
    workers = [
        DistributedRank(
            rank, build_stack(spec, rank=coordinator.binding(rank)), coordinator
        )
        for rank in range(WORLD_SIZE)
    ]

    def checkpoint_step(step, dead_ranks=()):
        """All live workers checkpoint their partition for `step`."""
        def run(worker):
            state = capture_state(partitions[worker.rank], step=step)
            try:
                worker.checkpoint(serialize_state(state), step=step)
            except DistributedError as exc:
                print(f"    rank {worker.rank}: barrier timed out ({exc})")

        threads = [
            threading.Thread(target=run, args=(worker,))
            for worker in workers if worker.rank not in dead_ranks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    print(f"=== {WORLD_SIZE} pipeline stages, checkpointing in lockstep ===")
    for step in (1, 2):
        # "Train": perturb each partition so states differ per step.
        for model in partitions:
            for param in model.parameters():
                param.data += 0.01
        checkpoint_step(step)
        print(f"  step {step}: all ranks committed; "
              f"globally consistent peer_check = {coordinator.peer_check}")

    print("\n=== rank 2 dies before checkpoint 3 ===")
    for model in partitions:
        for param in model.parameters():
            param.data += 0.01
    checkpoint_step(3, dead_ranks=(2,))
    print(f"  peer_check still = {coordinator.peer_check} "
          f"(step 3 never became globally consistent)")

    print("\n=== recovery across all four devices ===")
    consistent = recover_consistent([w.stack.layout for w in workers])
    print(f"  newest step every worker holds: {consistent.step}")
    assert consistent.step == 2
    for rank, payload in enumerate(consistent.payloads):
        print(f"  rank {rank}: partition checkpoint of "
              f"{len(payload)} bytes recovered")
    print("\nDespite ranks 0/1/3 having persisted parts of step 3, the "
          "group recovers step 2 — the last step ALL workers completed. "
          "Holding the superseded slot across the barrier is what makes "
          "this safe.")
    coordinator.close()
    for worker in workers:
        worker.close()


if __name__ == "__main__":
    main()
