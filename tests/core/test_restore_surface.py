"""The restore surface, by construction: ONE walk (`recover`) over every
stack a region can live on, and exactly the public names the module
promises."""

import ast
import inspect

import pytest

import repro.core.recovery as recovery
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import RECORD_SIZE
from repro.core.recovery import recover
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
        "load_validated", "commit_record_candidate", "valid_checkpoints",
        "RecoveredCheckpoint", "ConsistentCheckpoint",
        "DEFAULT_READ_CHUNK", "READ_THREADS",
    }
