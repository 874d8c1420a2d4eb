"""PCcheck configuration — the parameters of Table 2.

Three groups of quantities drive the system:

* **Configuration parameters** the user (or the auto-tuner of §3.4) picks:
  the number of concurrent checkpoints ``N``, parallel writer threads per
  checkpoint ``p``, DRAM buffer (chunk) size ``b``, number of DRAM chunks
  ``c``, and the checkpoint interval ``f`` in iterations.
* **System/model parameters** measured from the platform: GPU–CPU PCIe
  bandwidth ``T_G``, storage bandwidth ``T_S``, iteration time ``t``, and
  checkpoint size ``m``.
* **User constraints**: total DRAM budget ``M``, storage budget ``S``,
  acceptable slowdown ``q ≥ 1``, and total iterations ``A``.

:class:`PCcheckConfig` validates the constraints the paper states
(``M ≤ S``, ``N ≤ S/m − 1``, ``c = M/b``) and computes the Table 1 memory
footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError


def validate_choice(what: str, value: str, choices) -> str:
    """Reject ``value`` unless it is one of ``choices``.

    The ONE place enumerated-knob validation errors are worded, so the
    CLI, :func:`repro.open_checkpointer`, the engine pool, and the
    service all produce the same message shape::

        unknown backend 'tape' (expected one of: faults, pmem, ssd)

    Returns ``value`` unchanged so call sites can validate inline.
    """
    if value not in choices:
        raise ConfigError(
            f"unknown {what} {value!r} "
            f"(expected one of: {', '.join(sorted(choices))})"
        )
    return value


@dataclass(frozen=True)
class UserConstraints:
    """User-facing resource and overhead limits (Table 2, right column)."""

    dram_budget: int  # M, bytes of DRAM usable for staging
    storage_budget: int  # S, bytes of persistent storage for checkpoints
    max_slowdown: float = 1.05  # q >= 1
    total_iterations: int = 1_000_000  # A

    def __post_init__(self) -> None:
        if self.dram_budget <= 0:
            raise ConfigError(f"DRAM budget must be positive, got {self.dram_budget}")
        if self.storage_budget < self.dram_budget:
            raise ConfigError(
                f"the paper requires M <= S; got M={self.dram_budget}, "
                f"S={self.storage_budget}"
            )
        if self.max_slowdown < 1.0:
            raise ConfigError(f"slowdown q must be >= 1, got {self.max_slowdown}")
        if self.total_iterations <= 0:
            raise ConfigError("total iterations A must be positive")


@dataclass(frozen=True)
class SystemParameters:
    """Measured platform and workload quantities (Table 2, middle column)."""

    pcie_bandwidth: float  # T_G, bytes/sec GPU->DRAM
    storage_bandwidth: float  # T_S, bytes/sec DRAM->storage (saturated)
    iteration_time: float  # t, seconds per training iteration
    checkpoint_size: int  # m, bytes of model + optimizer state

    def __post_init__(self) -> None:
        for label, value in (
            ("PCIe bandwidth T_G", self.pcie_bandwidth),
            ("storage bandwidth T_S", self.storage_bandwidth),
            ("iteration time t", self.iteration_time),
        ):
            if value <= 0:
                raise ConfigError(f"{label} must be positive, got {value}")
        if self.checkpoint_size <= 0:
            raise ConfigError(
                f"checkpoint size m must be positive, got {self.checkpoint_size}"
            )


@dataclass(frozen=True)
class MemoryFootprint:
    """Table 1 row: bytes consumed at each level of the hierarchy."""

    gpu: int
    dram_min: int
    dram_max: int
    storage: int

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for table rendering."""
        return {
            "gpu": self.gpu,
            "dram_min": self.dram_min,
            "dram_max": self.dram_max,
            "storage": self.storage,
        }


@dataclass(frozen=True)
class PCcheckConfig:
    """A complete, validated PCcheck configuration.

    ``chunk_size=None`` disables pipelining: each checkpoint is staged and
    persisted as a single chunk (the non-pipelined variant of Figure 6).
    ``writer_threads`` splits the write of every chunk of a multi-chunk
    checkpoint and of every piece of a one-chunk payload above
    :data:`~repro.core.orchestrator.INLINE_WRITE_MAX_BYTES`, which
    streams to the writers in pieces of that size; a smaller one-chunk
    payload is written on the thread that runs its checkpoint.
    """

    num_concurrent: int = 2  # N
    writer_threads: int = 3  # p
    interval: int = 10  # f, in iterations
    chunk_size: Optional[int] = None  # b, bytes; None = whole checkpoint
    num_chunks: int = 2  # c, DRAM chunks available
    constraints: Optional[UserConstraints] = field(default=None)

    def __post_init__(self) -> None:
        if self.num_concurrent < 1:
            raise ConfigError(
                f"need at least one concurrent checkpoint, got {self.num_concurrent}"
            )
        if self.writer_threads < 1:
            raise ConfigError(
                f"need at least one writer thread, got {self.writer_threads}"
            )
        if self.interval < 1:
            raise ConfigError(f"checkpoint interval must be >= 1, got {self.interval}")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ConfigError(f"chunk size must be positive, got {self.chunk_size}")
        if self.num_chunks < 1:
            raise ConfigError(f"need at least one DRAM chunk, got {self.num_chunks}")

    @property
    def num_slots(self) -> int:
        """Storage slots required: N concurrent + 1 always-valid (Table 1)."""
        return self.num_concurrent + 1

    def validate_against(
        self, system: SystemParameters, constraints: UserConstraints
    ) -> None:
        """Check the Table 2 consistency rules for a concrete workload."""
        size = system.checkpoint_size
        max_concurrent = constraints.storage_budget // size - 1
        if self.num_concurrent > max_concurrent:
            raise ConfigError(
                f"N={self.num_concurrent} violates N <= S/m - 1 = {max_concurrent}"
            )
        dram_needed = self.dram_bytes(size)
        if dram_needed > constraints.dram_budget:
            raise ConfigError(
                f"staging needs {dram_needed} bytes of DRAM but the budget "
                f"is {constraints.dram_budget}"
            )

    def dram_bytes(self, checkpoint_size: int) -> int:
        """DRAM the staging pool occupies for a given checkpoint size."""
        chunk = self.effective_chunk_size(checkpoint_size)
        return chunk * self.num_chunks

    def effective_chunk_size(self, checkpoint_size: int) -> int:
        """Chunk size in bytes, defaulting to the full checkpoint."""
        if self.chunk_size is None:
            return checkpoint_size
        return min(self.chunk_size, checkpoint_size)

    def chunks_per_checkpoint(self, checkpoint_size: int) -> int:
        """How many chunks one checkpoint splits into."""
        chunk = self.effective_chunk_size(checkpoint_size)
        return max(1, math.ceil(checkpoint_size / chunk))

    def footprint(self, checkpoint_size: int) -> MemoryFootprint:
        """Table 1 footprint of PCcheck for a checkpoint of ``m`` bytes.

        GPU holds one copy of the state (m); DRAM staging ranges from m
        (tight pool) to 2m (the paper's default); storage holds N+1 slots.
        """
        return MemoryFootprint(
            gpu=checkpoint_size,
            dram_min=checkpoint_size,
            dram_max=min(2 * checkpoint_size, max(self.dram_bytes(checkpoint_size), checkpoint_size)),
            storage=self.num_slots * checkpoint_size,
        )


def baseline_footprint(name: str, checkpoint_size: int) -> MemoryFootprint:
    """Table 1 rows for the baselines.

    CheckFreq: m on GPU, m in DRAM, 2m on storage.  GPM: no DRAM copy,
    2m on storage.  Gemini: m plus a 32 MB staging buffer on the GPU, m in
    (remote) DRAM, no persistent storage.
    """
    m = checkpoint_size
    rows = {
        "checkfreq": MemoryFootprint(gpu=m, dram_min=m, dram_max=m, storage=2 * m),
        "gpm": MemoryFootprint(gpu=m, dram_min=0, dram_max=0, storage=2 * m),
        "gemini": MemoryFootprint(
            gpu=m + 32 * 1024 * 1024, dram_min=m, dram_max=m, storage=0
        ),
    }
    try:
        return rows[name]
    except KeyError:
        raise ConfigError(
            f"unknown baseline {name!r}; expected one of {sorted(rows)}"
        ) from None
