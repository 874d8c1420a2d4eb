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
from repro.storage.ssd import FileBackedSSD, InMemorySSD

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


def test_the_service_benchmark_calls_keep_working(tmp_path):
    """The calls ``bench/workloads/service.py`` makes into this API, at a
    small scale, so a contract break fails here rather than in the
    benchmark's run: a size-1 pool's whole-seat acquire/release loop, a
    pool over hand-opened files under an owning service,
    ``CheckpointService.create``, ``recover_coalesced`` and the leak
    report's keys."""
    big, small = 64 << 10, 4 << 10

    def spec(name):
        return repro.EngineSpec(
            capacity_bytes=big, backend="ssd", path=str(tmp_path / name),
            num_chunks=12, chunk_size=big, writer_threads=2,
            observability="off",
        )

    probe = spec("pool_probe.pc")
    pool = repro.EnginePool(probe, 1)
    lease = pool.acquire(tag="bench-probe")  # first acquire builds
    lease.release()
    for _ in range(5):
        pool.acquire(tag="bench-probe").release()
    pool.close()

    traced = spec("service.pc")
    capacity = Geometry(num_slots=traced.num_concurrent + 1,
                        slot_size=big + RECORD_SIZE).total_size
    devices = [FileBackedSSD(traced.member_path(i, 2), capacity=capacity)
               for i in range(2)]
    services = [
        repro.CheckpointService(repro.EnginePool(traced, 2, devices=devices),
                                owns_pool=True),
        repro.CheckpointService.create(spec("plain.pc"), pool_size=2),
    ]
    for service in services:
        service.register(repro.TenantSpec(name="big0", capacity_bytes=big,
                                          slots=1))
        service.register(repro.TenantSpec(name="small0",
                                          capacity_bytes=small, coalesce=True))
        for step in (1, 2):
            tickets = [
                service.checkpoint_async("big0", b"B" * big, step=step),
                service.checkpoint_async("small0", b"s" * small, step=step),
            ]
            assert all(t.result(60).committed for t in tickets)
        assert service.latest("big0")[0] == 2
        entry = service.recover_coalesced("small0")
        assert entry.step == 2 and bytes(entry.payload) == b"s" * small
        assert service.metrics()  # the bench diffs two snapshots
        report = service.close()
        assert report["leaked_slots"] == 0
        assert report["leaked_buffers"] == 0
