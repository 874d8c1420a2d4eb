"""Training-state serialization: model + optimizer + step → bytes.

This is the payload format the checkpoint engine persists — the
equivalent of ``torch.save`` for the miniature stack, but with a flat,
pickle-free binary layout so a torn read can never execute code:

``PCSTATE1`` magic · u32 header length · JSON header · raw tensor bytes.

The header records each tensor's dotted key, dtype, shape and byte range,
plus the training step.  Encoding is canonical (sorted keys) so the same
state always produces identical bytes — the recovery tests rely on
bit-exactness.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CorruptCheckpointError, TrainingError
from repro.storage.device import Buffer, as_view
from repro.storage.dram import PinnedBuffer
from repro.training.module import Module
from repro.training.optim import Optimizer

_MAGIC = b"PCSTATE1"
_LEN_STRUCT = struct.Struct("<I")


@dataclass
class TrainingState:
    """A decoded checkpoint: tensors by namespaced key, plus the step."""

    step: int
    tensors: Dict[str, np.ndarray]

    def model_tensors(self) -> Dict[str, np.ndarray]:
        """The ``model/``-namespaced tensors, keys stripped."""
        return {
            key[len("model/") :]: value
            for key, value in self.tensors.items()
            if key.startswith("model/")
        }

    def optimizer_tensors(self) -> Dict[str, np.ndarray]:
        """The ``optim/``-namespaced tensors, keys stripped."""
        return {
            key[len("optim/") :]: value
            for key, value in self.tensors.items()
            if key.startswith("optim/")
        }

    def scheduler_tensors(self) -> Dict[str, np.ndarray]:
        """The ``sched/``-namespaced tensors, keys stripped."""
        return {
            key[len("sched/") :]: value
            for key, value in self.tensors.items()
            if key.startswith("sched/")
        }


def live_state(
    model: Module,
    optimizer: Optional[Optimizer] = None,
    step: int = 0,
    scheduler=None,
) -> TrainingState:
    """A :class:`TrainingState` over the *live* model (and optimizer)
    arrays — nothing is copied, so it is only a consistent snapshot
    until the next weight update.

    The one enumeration of what a checkpoint contains:
    :func:`capture_state` copies from it, :class:`TrainingStateSource`
    captures through it.  (A scheduler's state is two scalars, boxed
    afresh by its ``state_dict()``.)
    """
    tensors: Dict[str, np.ndarray] = {
        f"model/{name}": value for name, value in model.state_tensors().items()
    }
    if optimizer is not None:
        for name, value in optimizer.state_tensors().items():
            tensors[f"optim/{name}"] = value
    if scheduler is not None:
        for name, value in scheduler.state_dict().items():
            tensors[f"sched/{name}"] = value
    return TrainingState(step=step, tensors=tensors)


def capture_state(
    model: Module,
    optimizer: Optional[Optimizer] = None,
    step: int = 0,
    scheduler=None,
) -> TrainingState:
    """Snapshot model (and optimizer/scheduler) tensors into a
    :class:`TrainingState` the caller may hold across updates."""
    live = live_state(model, optimizer, step=step, scheduler=scheduler)
    return TrainingState(
        step=step,
        tensors={key: value.copy() for key, value in live.tensors.items()},
    )


def restore_state(
    state: TrainingState,
    model: Module,
    optimizer: Optional[Optimizer] = None,
    scheduler=None,
) -> None:
    """Load a :class:`TrainingState` back into model/optimizer/scheduler."""
    model.load_state_dict(state.model_tensors())
    if optimizer is not None:
        optimizer.load_state_dict(state.optimizer_tensors())
    if scheduler is not None:
        scheduler.load_state_dict(state.scheduler_tensors())


def _encode_layout(
    state: TrainingState,
) -> Tuple[bytes, List[memoryview]]:
    """The serialized stream's pieces, without concatenating them.

    Returns the ``magic · length · header`` prefix as one ``bytes`` object
    plus a flat ``uint8`` view per tensor (in canonical key order) — each
    view aliases the tensor's own memory, so building the layout copies
    nothing but the header.
    """
    entries = []
    views: List[memoryview] = []
    offset = 0
    for key in sorted(state.tensors):
        tensor = np.ascontiguousarray(state.tensors[key])
        entries.append(
            {
                "key": key,
                "dtype": tensor.dtype.str,
                "shape": list(tensor.shape),
                "offset": offset,
                "nbytes": tensor.nbytes,
            }
        )
        views.append(memoryview(tensor.reshape(-1).view(np.uint8)))
        offset += tensor.nbytes
    header = json.dumps(
        {"step": state.step, "tensors": entries}, sort_keys=True
    ).encode("utf-8")
    prefix = b"".join([_MAGIC, _LEN_STRUCT.pack(len(header)), header])
    return prefix, views


def serialize_state(state: TrainingState) -> bytes:
    """Encode a :class:`TrainingState` into the flat binary format.

    The single copy here is the final ``join`` into the result — tensors
    are gathered through ``uint8`` views, never through per-tensor
    ``tobytes()`` intermediates.  Callers feeding an engine directly
    should prefer :class:`TrainingStateSource`, which skips even the join.
    """
    prefix, views = _encode_layout(state)
    return b"".join([prefix, *views])


class TrainingStateSource:
    """A :class:`~repro.core.snapshot.SnapshotSource` over a
    :class:`TrainingState` — the zero-copy path from tensors to engine.

    The PCSTATE1 stream is described as a list of segments (the header
    prefix plus one ``uint8`` view per tensor); ``capture_chunk`` gathers
    the requested byte range segment by segment straight into the pinned
    staging buffer.  The tensors themselves are never concatenated, so the
    staging copy is the only copy between the training state and storage.

    The source aliases the state's tensor memory.  Over a
    :func:`capture_state` copy that is private memory; over
    :func:`live_state` (what :meth:`Trainer.state_source
    <repro.training.loop.Trainer.state_source>` builds) it is the
    parameters and optimizer moments themselves, so the trainer must not
    update weights while a capture is in flight — the same
    ``wait_for_snapshots`` contract every snapshot source carries.
    """

    def __init__(self, state: TrainingState) -> None:
        prefix, views = _encode_layout(state)
        self._segments: List[memoryview] = [memoryview(prefix), *views]
        self._starts: List[int] = []
        position = 0
        for segment in self._segments:
            self._starts.append(position)
            position += len(segment)
        self._size = position

    def snapshot_size(self) -> int:
        return self._size

    def capture_chunk(self, offset: int, length: int, dest: PinnedBuffer) -> None:
        end = offset + length
        if offset < 0 or end > self._size:
            raise TrainingError(
                f"capture range [{offset}, {end}) outside serialized state "
                f"of {self._size} bytes"
            )
        dest.used = 0
        index = max(0, bisect_right(self._starts, offset) - 1)
        while index < len(self._segments) and self._starts[index] < end:
            start = self._starts[index]
            segment = self._segments[index]
            lo = max(offset, start) - start
            hi = min(end, start + len(segment)) - start
            if hi > lo:
                dest.append(segment[lo:hi])
            index += 1


def deserialize_state(raw: Buffer) -> TrainingState:
    """Decode bytes produced by :func:`serialize_state`.

    ``raw`` may be any contiguous buffer (a recovered payload is a
    read-only ``memoryview``); each tensor is copied out of it exactly
    once, straight off the view.

    Raises :class:`~repro.errors.CorruptCheckpointError` on any structural
    problem — wrong magic, truncated header or payload, bad ranges.
    """
    raw = as_view(raw)
    prefix = len(_MAGIC) + _LEN_STRUCT.size
    if len(raw) < prefix or raw[: len(_MAGIC)] != _MAGIC:
        raise CorruptCheckpointError("not a PCSTATE1 training state")
    (header_len,) = _LEN_STRUCT.unpack(raw[len(_MAGIC) : prefix])
    if len(raw) < prefix + header_len:
        raise CorruptCheckpointError("truncated training-state header")
    try:
        header = json.loads(bytes(raw[prefix : prefix + header_len]))
    except json.JSONDecodeError as exc:
        raise CorruptCheckpointError("unparsable training-state header") from exc
    payload = raw[prefix + header_len :]
    tensors: Dict[str, np.ndarray] = {}
    for entry in header.get("tensors", []):
        start, nbytes = entry["offset"], entry["nbytes"]
        if start < 0 or start + nbytes > len(payload):
            raise CorruptCheckpointError(
                f"tensor {entry['key']!r} range outside payload"
            )
        expected = int(np.prod(entry["shape"])) if entry["shape"] else 1
        dtype = np.dtype(entry["dtype"])
        if nbytes != expected * dtype.itemsize:
            raise CorruptCheckpointError(
                f"tensor {entry['key']!r} shape/size mismatch"
            )
        flat = np.frombuffer(payload[start : start + nbytes], dtype=dtype)
        tensors[entry["key"]] = flat.reshape(entry["shape"]).copy()
    return TrainingState(step=int(header.get("step", 0)), tensors=tensors)


def checkpoint_nbytes(model: Module, optimizer: Optional[Optimizer] = None) -> int:
    """Serialized size of a model(+optimizer) checkpoint, in bytes —
    summed over views; no tensor is copied to learn its size."""
    return TrainingStateSource(live_state(model, optimizer)).snapshot_size()


def states_equal(first: TrainingState, second: TrainingState) -> bool:
    """Bit-exact comparison of two training states (test helper)."""
    if first.step != second.step or first.tensors.keys() != second.tensors.keys():
        return False
    return all(
        np.array_equal(first.tensors[key], second.tensors[key], equal_nan=True)
        for key in first.tensors
    )


def ensure_same_graph(model: Module, state: TrainingState) -> None:
    """Sanity check: the state's model tensors match the module's names."""
    expected = {f"model/{name}" for name, _ in model.named_parameters()}
    got = {key for key in state.tensors if key.startswith("model/")}
    if expected != got:
        raise TrainingError(
            f"checkpoint does not match model: missing="
            f"{sorted(expected - got)}, unexpected={sorted(got - expected)}"
        )
