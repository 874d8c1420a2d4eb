"""Checkpoint-as-a-service: multi-tenant checkpointing over a shared
engine pool.

Layers, bottom up:

* :mod:`repro.service.pool` — :class:`EngineSpec` + :class:`EnginePool`:
  the single place a PCcheck stack (device/layout/engine/orchestrator)
  is assembled, with explicit leasing and leak-accounted close.
  :func:`repro.open_checkpointer` is a one-tenant view over a size-1
  pool.
* :mod:`repro.service.admission` — tenant specs, Eq. 3 quota
  derivation, and per-tenant accounting.
* :mod:`repro.service.batching` — group commit of small tenants'
  checkpoints into one covering fence per batch.
* :mod:`repro.service.service` — :class:`CheckpointService`, tying the
  three together behind ``register`` / ``checkpoint_async`` / ``close``.
"""

from repro.service.admission import (
    TenantAccount,
    TenantQuota,
    TenantSpec,
    derive_quota,
)
from repro.service.batching import BatchEntry, CoalescingBatcher, parse_batch
from repro.service.pool import (
    BACKENDS,
    OBSERVABILITY_LEVELS,
    EngineLease,
    EnginePool,
    EngineSpec,
    EngineStack,
    build_stack,
    open_existing_region,
)
from repro.service.service import CheckpointService, ServiceResult, ServiceTicket

__all__ = [
    "BACKENDS",
    "OBSERVABILITY_LEVELS",
    "BatchEntry",
    "CheckpointService",
    "CoalescingBatcher",
    "EngineLease",
    "EnginePool",
    "EngineSpec",
    "EngineStack",
    "ServiceResult",
    "ServiceTicket",
    "TenantAccount",
    "TenantQuota",
    "TenantSpec",
    "build_stack",
    "derive_quota",
    "open_existing_region",
    "parse_batch",
]
