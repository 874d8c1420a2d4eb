"""One registry for every checkpointing strategy, functional and simulated.

The single source of truth for the functional baselines
(:mod:`repro.baselines`) and the performance-simulator process models
(:mod:`repro.sim.strategies`): one :class:`StrategyEntry` per strategy
describes its functional implementation (if any), its simulated process
model (if any), and how much device capacity the functional variant
needs.  Both packages import from here, so adding a strategy is a
one-file change.

Classes are referenced by ``"module:ClassName"`` path and resolved
lazily.  That keeps this module import-light — it never imports the
baselines or sim packages at module scope, so neither package can form
an import cycle by importing the registry from its ``__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.config import PCcheckConfig
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import CheckpointStrategy
    from repro.sim.strategies.base import StrategySim
    from repro.storage.device import PersistentDevice

#: A device factory receives the required capacity and returns a device.
DeviceFactory = Callable[[int], "PersistentDevice"]

#: How :func:`build_strategy` invokes a functional strategy constructor.
#: ``threaded`` passes ``writer_threads=``, ``plain`` passes only the
#: device and payload capacity, ``engine`` passes ``config=`` through to
#: a full checkpoint engine, ``replicated`` builds no device at all —
#: the strategy replicates to peer memories (functional_slots must be 0).
_FUNCTIONAL_KINDS = ("threaded", "plain", "engine", "replicated")


def _resolve(path: str) -> type:
    """Import ``"module:ClassName"`` and return the class."""
    module_name, _, attr = path.partition(":")
    return getattr(import_module(module_name), attr)


@dataclass(frozen=True)
class StrategyEntry:
    """Everything the repo knows about one named strategy."""

    name: str
    description: str
    #: ``"module:ClassName"`` of the functional implementation, or None
    #: for simulation-only strategies (e.g. ``gemini``).
    functional: Optional[str] = None
    #: Constructor shape for the functional class (see _FUNCTIONAL_KINDS).
    functional_kind: str = "plain"
    #: On-device slots the functional variant formats.  None means "ask
    #: the engine config" (PCcheck's N+1 slots from ``num_slots``).
    functional_slots: Optional[int] = 2
    #: ``"module:ClassName"`` of the simulated process model, or None
    #: for strategies that only exist functionally (e.g. ``naive``).
    simulated: Optional[str] = None

    def __post_init__(self) -> None:
        if self.functional is None and self.simulated is None:
            raise ValueError(
                f"strategy {self.name!r} has neither a functional nor a "
                "simulated implementation"
            )
        if self.functional_kind not in _FUNCTIONAL_KINDS:
            raise ValueError(
                f"strategy {self.name!r}: unknown functional_kind "
                f"{self.functional_kind!r}"
            )

    def functional_class(self) -> type:
        """Resolve the functional implementation class."""
        if self.functional is None:
            raise ConfigError(
                f"strategy {self.name!r} has no functional implementation; "
                f"available: {functional_strategies()}"
            )
        return _resolve(self.functional)

    def simulated_class(self) -> type:
        """Resolve the simulated process-model class."""
        if self.simulated is None:
            raise ConfigError(
                f"strategy {self.name!r} has no simulated process model; "
                f"available: {simulated_strategies()}"
            )
        return _resolve(self.simulated)


#: The canonical table.  Add a strategy here and both the functional
#: benchmarks and the simulator pick it up.
REGISTRY: Dict[str, StrategyEntry] = {
    entry.name: entry
    for entry in (
        StrategyEntry(
            name="naive",
            description="Stop-the-world snapshot, two alternating slots.",
            functional="repro.baselines.naive:NaiveStrategy",
            functional_kind="threaded",
        ),
        StrategyEntry(
            name="traditional",
            description="Synchronous checkpoint process model (Figure 2a).",
            simulated="repro.sim.strategies.simple:TraditionalSim",
        ),
        StrategyEntry(
            name="ideal",
            description="Zero-cost checkpoint upper bound for slowdown plots.",
            simulated="repro.sim.strategies.simple:IdealSim",
        ),
        StrategyEntry(
            name="checkfreq",
            description="Snapshot/persist pipeline with one in-flight "
            "checkpoint (CheckFreq).",
            functional="repro.baselines.checkfreq:CheckFreqStrategy",
            functional_kind="threaded",
            simulated="repro.sim.strategies.checkfreq:CheckFreqSim",
        ),
        StrategyEntry(
            name="gemini",
            description="In-memory peer replication process model (Gemini).",
            simulated="repro.sim.strategies.checkfreq:GeminiSim",
        ),
        StrategyEntry(
            name="checkmate",
            description="Gradient replication to peer accelerators; zero "
            "persist on the hot path (Checkmate).",
            functional="repro.baselines.checkmate:CheckmateStrategy",
            functional_kind="replicated",
            functional_slots=0,
            simulated="repro.sim.strategies.checkmate:CheckmateSim",
        ),
        StrategyEntry(
            name="gpm",
            description="GPU-direct persistent-memory writes (GPM).",
            functional="repro.baselines.gpm:GPMStrategy",
            simulated="repro.sim.strategies.simple:GPMSim",
        ),
        StrategyEntry(
            name="pccheck",
            description="Concurrent checkpointing with N+1 slots and "
            "parallel writers (this paper).",
            functional="repro.baselines.pccheck:PCcheckStrategy",
            functional_kind="engine",
            functional_slots=None,
            simulated="repro.sim.strategies.pccheck:PCcheckSim",
        ),
    )
}


def strategies() -> List[str]:
    """Every registered strategy name, sorted."""
    return sorted(REGISTRY)


def functional_strategies() -> List[str]:
    """Names accepted by :func:`build_strategy` (registry order)."""
    return [name for name, entry in REGISTRY.items() if entry.functional]


def simulated_strategies() -> List[str]:
    """Names accepted by :func:`get_strategy_sim`, sorted."""
    return sorted(
        name for name, entry in REGISTRY.items() if entry.simulated
    )


def functional_entry(name: str) -> StrategyEntry:
    """Look up a strategy that has a functional implementation."""
    entry = REGISTRY.get(name)
    if entry is None or entry.functional is None:
        raise ConfigError(
            f"unknown strategy {name!r}; available: {functional_strategies()}"
        )
    return entry


def simulated_entry(name: str) -> StrategyEntry:
    """Look up a strategy that has a simulated process model."""
    entry = REGISTRY.get(name)
    if entry is None or entry.simulated is None:
        raise ConfigError(
            f"unknown simulated strategy {name!r}; "
            f"available: {simulated_strategies()}"
        )
    return entry


def required_capacity(name: str, payload_capacity: int,
                      config: Optional[PCcheckConfig] = None) -> int:
    """Device bytes a strategy needs for checkpoints of ``payload_capacity``."""
    entry = functional_entry(name)
    if entry.functional_slots == 0:
        # Replicated strategies hold no on-device region at all.
        return 0
    slot_size = payload_capacity + RECORD_SIZE
    if entry.functional_slots is None:
        slots = (config or PCcheckConfig()).num_slots
    else:
        slots = entry.functional_slots
    return Geometry(num_slots=slots, slot_size=slot_size).total_size


def build_strategy(
    name: str,
    device_factory: DeviceFactory,
    payload_capacity: int,
    config: Optional[PCcheckConfig] = None,
    writer_threads: int = 1,
) -> "CheckpointStrategy":
    """Construct a functional strategy with a right-sized device."""
    entry = functional_entry(name)
    if entry.functional_kind == "replicated":
        # No persistent device: the strategy replicates into peer
        # memories sized for the payload (device_factory is never called).
        return entry.functional_class()(payload_capacity)
    capacity = required_capacity(name, payload_capacity, config)
    device = device_factory(capacity)
    cls = entry.functional_class()
    if entry.functional_kind == "threaded":
        return cls(device, payload_capacity, writer_threads=writer_threads)
    if entry.functional_kind == "engine":
        return cls(device, payload_capacity, config=config)
    return cls(device, payload_capacity)


def get_strategy_sim(name: str) -> type:
    """Look up a simulated strategy class by name."""
    return simulated_entry(name).simulated_class()
