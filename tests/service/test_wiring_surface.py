"""The wiring surface, by construction: an orchestrator over a staging
pool over an engine (over tiers, as a distributed rank) is assembled by
`build_stack` and nowhere else in ``src/repro`` — and what the strategy
built through it is instrumented exactly when a registry was passed."""

import ast
from pathlib import Path

import repro
from repro.baselines.pccheck import PCcheckStrategy
from repro.core.layout import Geometry
from repro.core.meta import RECORD_SIZE
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.ssd import InMemorySSD

SRC = Path(repro.__file__).parent

#: class -> the only modules under ``src/repro`` allowed to call it:
#: the builder, plus — for the engine alone — the sites that only ever
#: have a bare engine over a layout and no hook to install (the tier
#: policy's engine over the warm region among them).
#: (``storage/dram.py`` defines the pool and is not a wiring site.)
ALLOWED = {
    "PCcheckOrchestrator": {"service/pool.py"},
    "DRAMBufferPool": {"service/pool.py"},
    "TierPolicy": {"service/pool.py"},
    "CheckpointEngine": {
        "service/pool.py",
        "baselines/naive.py",
        "baselines/checkfreq.py",
        "baselines/gpm.py",
        "core/autotune.py",
        "storage/tiering.py",
    },
}


def wiring_calls(source):
    """Names from ``ALLOWED`` that ``source`` *calls* (imports, type
    annotations and docstrings do not count)."""
    return {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    } & set(ALLOWED)


def test_stacks_are_wired_in_the_builder_only():
    callers = {name: set() for name in ALLOWED}
    for path in SRC.rglob("*.py"):
        for name in wiring_calls(path.read_text()):
            callers[name].add(path.relative_to(SRC).as_posix())
    callers["DRAMBufferPool"].discard("storage/dram.py")
    assert callers == ALLOWED


def test_a_hand_wired_stack_is_caught():
    offending = (
        "from repro.core.orchestrator import PCcheckOrchestrator as Orch\n"
        "import repro.storage.dram as dram\n"
        "def wire(engine, tiering):\n"
        "    pool = dram.DRAMBufferPool(num_chunks=2, chunk_size=64)\n"
        "    return PCcheckOrchestrator(engine, pool), tiering.TierPolicy\n"
    )
    assert wiring_calls(offending) == {"PCcheckOrchestrator", "DRAMBufferPool"}


def test_a_hand_hooked_engine_is_caught():
    offending = (
        "import repro.core.engine as eng\n"
        "def bind(layout, coordinator, rank):\n"
        "    return eng.CheckpointEngine(\n"
        "        layout, post_cas_hook=coordinator.binding(rank).on_commit\n"
        "    )\n"
    )
    assert wiring_calls(offending) == {"CheckpointEngine"}


def _device_writes(strategy, registry, capacity=4096):
    """Checkpoint once; the device-op series ``registry`` saw."""
    strategy.checkpoint(b"x" * capacity, step=1)
    strategy.drain()
    strategy.close()
    return registry.value(M.DEVICE_OPS, device="probe", op="write")


def test_strategy_instruments_the_device_only_with_a_registry():
    def device():
        geometry = Geometry(num_slots=3, slot_size=4096 + RECORD_SIZE)
        return InMemorySSD(geometry.total_size, name="probe")

    registry = MetricsRegistry()
    traced = PCcheckStrategy(device(), 4096, metrics=registry)
    assert traced.orchestrator.engine.metrics is registry
    assert _device_writes(traced, registry) > 0

    bare = PCcheckStrategy(device(), 4096)
    private = bare.orchestrator.engine.metrics
    assert _device_writes(bare, private) == 0
    assert private.value(M.COMMITS) == 1  # it ran; nothing was attached
