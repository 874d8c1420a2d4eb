"""Checkpoint-as-a-service: multi-tenant checkpointing over a shared
engine pool.

Layers, bottom up:

* :mod:`repro.service.stack` — :class:`EngineSpec` (how to assemble
  one PCcheck stack) and :class:`EngineStack` (the assembled
  device/layout/engine/orchestrator and its leak accounting).
* :mod:`repro.service.pool` — :func:`build_stack`, the single place a
  stack is assembled, and :class:`EnginePool`: lazily built stacks, the
  one map of their tickets (N concurrent checkpoints per stack) and a
  leak-accounted close.  :func:`repro.open_checkpointer` builds one
  stack, or takes a whole seat of a pool it is given.
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
    EngineLease,
    EnginePool,
    build_stack,
    open_existing_region,
)
from repro.service.stack import (
    BACKENDS,
    OBSERVABILITY_LEVELS,
    EngineSpec,
    EngineStack,
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
