"""PCcheck reproduction — persistent concurrent checkpointing for ML.

A from-scratch Python implementation of *PCcheck: Persistent Concurrent
Checkpointing for ML* (Strati, Friedman, Klimovic — ASPLOS 2025), with:

* :mod:`repro.core` — the concurrent checkpoint engine (Listing 1),
  orchestrator, recovery, auto-tuning, and distributed coordination;
* :mod:`repro.storage` — SSD/PMEM/GPU/DRAM substrates with crash
  injection;
* :mod:`repro.training` — a miniature pure-numpy DNN training stack whose
  model+optimizer state the engine checkpoints;
* :mod:`repro.baselines` — functional CheckFreq / GPM / naive strategies;
* :mod:`repro.sim` — a calibrated discrete-event performance simulator
  that regenerates every figure in the paper's evaluation;
* :mod:`repro.analysis` — experiment runners, tables, and CSV output.

Quickstart::

    from repro import open_checkpointer
    with open_checkpointer("/tmp/ckpt.pc", capacity_bytes=1 << 20,
                           num_concurrent=2) as ckpt:
        ckpt.checkpoint(b"model state", step=1)
        print(ckpt.latest().step)       # -> 1
        print(ckpt.metrics("prometheus"))

All keyword knobs of :func:`repro.open_checkpointer` — ``backend=``
("ssd"/"pmem"/"faults") and ``observability=`` ("off"/"metrics"/"full")
among them — are documented on the function.

Multi-tenant checkpointing lives in :mod:`repro.service`: an explicit
:class:`~repro.service.EnginePool` (engine stacks, each running up to
``num_concurrent`` checkpoints — tickets — for any holders, built by
the same ``build_stack`` as ``open_checkpointer``'s) and a
:class:`~repro.service.CheckpointService` with per-tenant quotas,
admission control, and cross-tenant group commit::

    from repro import CheckpointService, EngineSpec, TenantSpec
    svc = CheckpointService.create(
        EngineSpec(capacity_bytes=1 << 20, backend="pmem"), pool_size=2)
    svc.register(TenantSpec(name="job-a", capacity_bytes=1 << 20, slots=2))
    svc.checkpoint("job-a", b"model state", step=1)
    svc.close()
"""

from repro._api import Checkpointer, open_checkpointer
from repro.errors import (
    AdmissionRejected,
    ConfigError,
    CorruptCheckpointError,
    EngineError,
    NoCheckpointError,
    PCcheckError,
    RemoteUnavailableError,
    ServiceError,
    ServiceSaturated,
    StorageError,
)
from repro.service import (
    CheckpointService,
    EngineLease,
    EnginePool,
    EngineSpec,
    TenantSpec,
)
from repro.storage.remote import RemoteStore
from repro.storage.tiering import TieredDevice, TierPlan, TierPolicy

__version__ = "1.0.0"

__all__ = [
    "AdmissionRejected",
    "Checkpointer",
    "CheckpointService",
    "ConfigError",
    "CorruptCheckpointError",
    "EngineError",
    "EngineLease",
    "EnginePool",
    "EngineSpec",
    "NoCheckpointError",
    "PCcheckError",
    "RemoteStore",
    "RemoteUnavailableError",
    "ServiceError",
    "ServiceSaturated",
    "StorageError",
    "TenantSpec",
    "TieredDevice",
    "TierPlan",
    "TierPolicy",
    "__version__",
    "open_checkpointer",
]
