"""The restore surface, by construction: ONE walk (`recover`) over every
stack a region can live on, ONE attempt loop under it and the cut, and
exactly the public names the module promises."""

import ast
import dataclasses
import inspect

import pytest

import repro.core.recovery as recovery
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import ConsistentCheckpoint, recover, recover_consistent
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.remote import RemoteStore
from repro.storage.ssd import InMemorySSD
from repro.storage.striped import STRIPE_HEADER_SIZE, StripedDevice
from repro.storage.tiering import TieredDevice, TierPolicy

SLOTS = 3
PAYLOAD_CAPACITY = 6000
SLOT_SIZE = PAYLOAD_CAPACITY + RECORD_SIZE
PAYLOADS = {step: bytes([step]) * (PAYLOAD_CAPACITY - step) for step in (1, 2)}


class Written:
    """Steps 1 and 2 committed on one kind of stack; ``source`` is what
    `recover` is handed, ``layout`` the (hot) region damage lands on."""

    def __init__(self, kind):
        total = Geometry(num_slots=SLOTS, slot_size=SLOT_SIZE).total_size
        self.prefix = ""
        policy = None
        if kind == "striped":
            device = StripedDevice.create(
                [InMemorySSD(STRIPE_HEADER_SIZE + total, name=f"m{i}")
                 for i in range(2)],
                stripe_size=512,
            )
        else:
            device = InMemorySSD(total, name="hot")
        if kind == "tiered":
            warm = InMemorySSD(total, name="warm")
            device = TieredDevice(device, warm, RemoteStore())
            self.prefix = "hot:"
        self.layout = DeviceLayout.format(
            device, num_slots=SLOTS, slot_size=SLOT_SIZE
        )
        if kind == "tiered":
            policy = TierPolicy(self.layout, warm, device.remote)
        engine = CheckpointEngine(
            self.layout, writer_threads=2,
            post_cas_hook=policy.on_commit if policy else None,
        )
        for step, payload in PAYLOADS.items():
            assert engine.checkpoint(payload, step=step).committed
        self.newest = engine.committed()
        if policy is not None:
            assert policy.drain(timeout=10.0)
            policy.stop()
        engine.close()
        self.source = device if kind == "tiered" else self.layout

    def overwrite(self, offset, data):
        self.layout.device.write(offset, data)
        self.layout.device.persist(offset, len(data))

    def corrupt_payload(self, slot):
        offset = self.layout.payload_offset(slot)
        first = self.layout.device.read(offset, 1)[0]
        self.overwrite(offset, bytes([first ^ 0xFF]))


def intact(written):
    return 2, written.prefix + "commit-record"


def commit_record_torn(written):
    written.overwrite(written.layout.commit_offset, bytes(RECORD_SIZE))
    return 2, written.prefix + "slot-scan"


def newest_payload_corrupted(written):
    """Falls to the older slot — or, with every hot copy gone on a
    tiered stack, to the colder tier's copy of the newest step."""
    if written.prefix:
        for slot in range(SLOTS):
            written.corrupt_payload(slot)
        return 2, "warm:commit-record"
    written.corrupt_payload(written.newest.slot)
    return 1, "slot-scan"


@pytest.mark.parametrize(
    "damage", [intact, commit_record_torn, newest_payload_corrupted],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("kind", ["plain", "striped", "tiered"])
def test_recover_walks_every_stack(kind, damage):
    written = Written(kind)
    step, source = damage(written)
    found = recover(written.source)
    assert found.meta.step == step
    assert found.payload == PAYLOADS[step]
    assert found.source == source


@pytest.mark.parametrize(
    "damage", [intact, commit_record_torn, newest_payload_corrupted],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("kind", ["plain", "striped"])
def test_recover_consistent_walks_every_stack(kind, damage):
    """Damage on one rank: the cut settles on the newest step both ranks
    still load — a torn newest payload falls back to the older common
    step — in one attempt."""
    ranks = [Written(kind), Written(kind)]
    step, source = damage(ranks[1])
    metrics = MetricsRegistry()
    cut = recover_consistent([r.layout for r in ranks], metrics=metrics)
    assert cut.step == step
    assert cut.payloads == [PAYLOADS[step], PAYLOADS[step]]
    assert cut.sources[1] == source
    assert metrics.value(M.RECOVERY_ATTEMPTS) == 1


def test_recovery_has_exactly_one_attempt_loop():
    """Every restore retries through `_walk`: no other loop in the module
    counts attempts, so a second read loop cannot come back unnoticed."""
    tree = ast.parse(inspect.getsource(recovery))
    owners = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for loop in ast.walk(function)
        if isinstance(loop, (ast.For, ast.While))
        and "max_attempts" in ast.unparse(
            loop.iter if isinstance(loop, ast.For) else loop.test
        )
    ]
    assert owners == ["_walk"]


def test_public_surface_is_exactly_the_promised_names():
    public = set()
    for node in ast.parse(inspect.getsource(recovery)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.add(node.name)
        elif isinstance(node, ast.AnnAssign):
            public.add(node.target.id)
        elif isinstance(node, ast.Assign):
            public.update(target.id for target in node.targets)
    assert {name for name in public if not name.startswith("_")} == {
        "recover", "try_recover", "find_committed", "recover_consistent",
        "load_validated", "valid_checkpoints",
        "RecoveredCheckpoint", "ConsistentCheckpoint",
        "DEFAULT_READ_CHUNK", "READ_THREADS",
    }
    # Built by the walk alone: every field is given, none defaulted.
    assert not hasattr(ConsistentCheckpoint, "__post_init__")
    assert all(
        field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
        for field in dataclasses.fields(ConsistentCheckpoint)
    )
