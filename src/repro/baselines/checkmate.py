"""A functional Checkmate-style gradient-replication baseline.

Checkmate (PAPERS.md) sidesteps persistent storage entirely: instead of
writing checkpoints to disk, each worker *replicates* its update state
to the DRAM of R peer accelerators every iteration.  Any single failure
is recovered from a surviving replica; nothing ever hits storage, so
the hot path pays network bandwidth only ("zero persist").

The functional model reuses Gemini's moving parts — a
:class:`~repro.baselines.gemini.RemoteMemoryStore` per replica peer and
a bandwidth-throttled :class:`~repro.baselines.gemini.NetworkChannel` —
but broadcasts each checkpoint to **all** R replicas in one in-flight
transfer and commits the step once a quorum (majority) of replicas
holds a complete copy.  :meth:`CheckmateStrategy.fail_replica` downs a
peer; :meth:`CheckmateStrategy.recover` returns the newest checkpoint
any surviving replica still holds.

Because Checkmate replicates every iteration, the interesting contrast
with Gemini is *what* crosses the network: Gemini ships full model +
optimizer state per checkpoint, Checkmate only the freshly produced
update (the sim models this as :data:`repro.sim.strategies.checkmate.
GRADIENT_FRACTION` of the state).  The functional baseline keeps the
full payload so recovery is byte-exact and comparable across
strategies.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from repro.baselines.base import CheckpointStrategy, State, stage
from repro.baselines.gemini import NetworkChannel, RemoteMemoryStore
from repro.core.snapshot import as_source
from repro.errors import ConfigError, NoCheckpointError
from repro.storage.dram import PinnedBuffer


class CheckmateStrategy(CheckpointStrategy):
    """Replicate checkpoints to R peer memories; commit on quorum."""

    name = "checkmate"

    def __init__(
        self,
        capacity: int,
        replicas: int = 2,
        channel: Optional[NetworkChannel] = None,
    ) -> None:
        super().__init__()
        if replicas < 1:
            raise ConfigError(f"need at least 1 replica, got {replicas}")
        self._stores: List[RemoteMemoryStore] = [
            RemoteMemoryStore(capacity) for _ in range(replicas)
        ]
        self._alive = [True] * replicas
        self._channel = channel or NetworkChannel()
        self._quorum = replicas // 2 + 1
        # One broadcast in flight at a time; the staging buffer is reused
        # (checkpoint() joins the previous transfer before refilling).
        self._staging = PinnedBuffer(0, 0)
        self._pending: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._latest_step: Optional[int] = None
        self._lock = threading.Lock()

    @property
    def replicas(self) -> int:
        """Peer memories this strategy replicates into."""
        return len(self._stores)

    @property
    def stores(self) -> List[RemoteMemoryStore]:
        """The replica memories (tests inspect/fail them directly)."""
        return self._stores

    def fail_replica(self, index: int) -> None:
        """Down one peer: its replica memory is lost until re-replication."""
        self._stores[index].fail()
        with self._lock:
            self._alive[index] = False

    def restore_replica(self, index: int) -> None:
        """Bring a failed peer back (empty; refilled by the next commit)."""
        with self._lock:
            self._alive[index] = True

    # ------------------------------------------------------------------
    # CheckpointStrategy interface

    def checkpoint(self, state: State, step: int) -> None:
        start = time.monotonic()
        self.stats.checkpoints_started += 1
        self._wait_pending()
        source = as_source(state)
        if source.snapshot_size() > self._staging.size:
            self._staging = PinnedBuffer(0, source.snapshot_size())
        snapshot = stage(source, self._staging)
        worker = threading.Thread(
            target=self._broadcast, args=(snapshot, step), daemon=True,
            name="checkmate-broadcast",
        )
        self._pending = worker
        worker.start()
        self.stats.add_checkpoint_block(time.monotonic() - start)

    def _broadcast(self, payload: memoryview, step: int) -> None:
        try:
            complete = 0
            for index, store in enumerate(self._stores):
                with self._lock:
                    if not self._alive[index]:
                        continue
                buffer_index = store.begin(step)
                self._channel.send(
                    payload,
                    lambda offset, chunk, s=store, b=buffer_index: s.receive(
                        b, offset, chunk
                    ),
                )
                store.commit(buffer_index)
                complete += 1
            if complete < self._quorum:
                raise NoCheckpointError(
                    f"step {step} reached only {complete} of "
                    f"{len(self._stores)} replicas (quorum {self._quorum})"
                )
            with self._lock:
                self._latest_step = step
                self.stats.checkpoints_completed += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced on next call
            with self._lock:
                self._error = exc

    def _wait_pending(self) -> None:
        pending = self._pending
        if pending is not None:
            pending.join()
            self._pending = None
        with self._lock:
            if self._error is not None:
                error, self._error = self._error, None
                raise error

    def drain(self) -> None:
        self._wait_pending()

    def latest_recoverable_step(self) -> Optional[int]:
        with self._lock:
            return self._latest_step

    def recover(self) -> Tuple[int, bytes]:
        """The newest checkpoint any surviving replica holds."""
        best: Optional[Tuple[int, bytes]] = None
        for store in self._stores:
            try:
                step, payload = store.latest()
            except NoCheckpointError:
                continue
            if best is None or step > best[0]:
                best = (step, payload)
        if best is None:
            raise NoCheckpointError("no replica holds a checkpoint")
        return best

    def close(self) -> None:
        self.drain()
