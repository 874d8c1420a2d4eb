"""The device protocol is forwarded by construction, not by hand.

``PersistentDevice``'s public surface is enumerated by introspection and
every wrapper class in ``repro.storage`` must answer each member exactly
as the device it wraps does.  Add a method to ``PersistentDevice``
without teaching ``DeviceWrapper`` to forward it and this file fails —
which is how ``preferred_align`` (PR 10) and ``readinto`` (PR 13) should
have been caught.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.storage
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.device import DeviceWrapper, PersistentDevice
from repro.storage.faults import CrashPointDevice, TransientFaultDevice
from repro.storage.remote import RemoteStore
from repro.storage.ssd import InMemorySSD
from repro.storage.striped import STRIPE_HEADER_SIZE, StripedDevice
from repro.storage.tiering import TieredDevice

ALIGN = 512
CAPACITY = 8 * ALIGN
LABEL = "probe"
#: The probed range straddles an ALIGN boundary, so on a striped device
#: it touches two members.
OFFSET, LENGTH = ALIGN - 16, 32

#: What a device answers about itself rather than about the bytes below
#: it: its own name and its own lifetime (whether closing a wrapper
#: closes the inner device is each wrapper's documented decision).
OWN = {"name", "closed", "close"}


def device_surface():
    """Public properties and methods of ``PersistentDevice``."""
    return sorted(
        name
        for name, member in inspect.getmembers(PersistentDevice)
        if not name.startswith("_")
        and (isinstance(member, property) or inspect.isfunction(member))
    )


class Probe(InMemorySSD):
    """An inner device with a non-default alignment hint that counts
    ``read()`` calls, so a ``readinto`` served by the base-class
    ``read()`` fallback shows."""

    def __init__(self, capacity=CAPACITY, name="probe-ssd"):
        super().__init__(capacity, name)
        self.read_calls = 0

    @property
    def preferred_align(self):
        return ALIGN

    def read(self, offset, length):
        self.read_calls += 1
        return super().read(offset, length)


def answer(device, name, registry):
    """``device``'s answer to one protocol member; method arguments are
    chosen by parameter name (a new parameter name fails here — teach it)."""
    member = getattr(PersistentDevice, name)
    if isinstance(member, property):
        return getattr(device, name)
    samples = {
        "offset": OFFSET,
        "length": LENGTH,
        "data": bytes(range(LENGTH)),
        "dest": bytearray(LENGTH),
        "metrics": registry,
        "label": LABEL,
    }
    kwargs = {
        param: samples[param]
        for param in list(inspect.signature(member).parameters)[1:]
    }
    result = getattr(device, name)(**kwargs)
    return result, bytes(kwargs.get("dest", b""))


def moved(backing):
    """What has happened to the bytes below: traffic, what is still
    volatile — and, last, how often ``read()`` was the entry point."""
    return (
        sum(device.stats.bytes_written for device in backing),
        sum(device.stats.bytes_read for device in backing),
        sum(device.unpersisted_bytes for device in backing),
        sum(device.read_calls for device in backing),
    )


def _since(before, after):
    return [b - a for a, b in zip(before, after)]


def metered(registry):
    return {
        op: (
            registry.value(M.DEVICE_OPS, device=LABEL, op=op),
            registry.value(M.DEVICE_OP_BYTES, device=LABEL, op=op),
        )
        for op in ("write", "read", "persist")
    }


def unfaithful_members(device, backing):
    """Members of the surface ``device`` answers differently from a bare
    ``Probe`` of the same capacity (``backing``: the probes below it)."""
    reference = Probe(device.capacity)
    ours, theirs = MetricsRegistry(), MetricsRegistry()
    seed = bytes(range(256)) * (2 * ALIGN // 256)
    failed = []
    # attach_metrics goes first so the steps after it run metered, as
    # they do in an instrumented stack.
    order = sorted(
        set(device_surface()) - OWN, key=lambda n: (n != "attach_metrics", n)
    )
    for name in order:
        before = moved(backing), moved([reference])
        got = answer(device, name, ours)
        want = answer(reference, name, theirs)
        if name == "attach_metrics":
            # One op makes the attachment observable (did the registry
            # reach the bytes?) and seeds the pattern the reads compare.
            device.write(0, seed)
            reference.write(0, seed)
            if metered(ours) != metered(theirs):
                failed.append(name)
                continue
        *ours_moved, ours_reads = _since(before[0], moved(backing))
        *theirs_moved, theirs_reads = _since(before[1], moved([reference]))
        # Same bytes moved, and never through read() where the inner
        # device itself would not have copied (the readinto fallback).
        if got != want or ours_moved != theirs_moved or ours_reads > theirs_reads:
            failed.append(name)
    return failed


def _tiered(inner):
    return TieredDevice(inner, Probe(name="warm"), RemoteStore())


#: wrapper class -> (factory over an inner device, the protocol members
#: it gates or extends — the only ones its class body may define).
WRAPPERS = {
    CrashPointDevice: (CrashPointDevice, {"write", "persist"}),
    TransientFaultDevice: (
        lambda inner: TransientFaultDevice(inner, kind="read", occurrence=1 << 30),
        {"write", "read", "readinto", "persist"},
    ),
    TieredDevice: (_tiered, {"attach_metrics", "close"}),
}


def wrapper_classes():
    for module in pkgutil.iter_modules(repro.storage.__path__):
        importlib.import_module(f"repro.storage.{module.name}")
    found, stack = set(), [DeviceWrapper]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.storage."):
                found.add(cls)
    return found


def test_every_wrapper_class_in_repro_storage_is_checked():
    assert wrapper_classes() == set(WRAPPERS)


@pytest.mark.parametrize("cls", sorted(WRAPPERS, key=lambda c: c.__name__))
def test_wrapper_answers_like_its_inner_device(cls):
    factory, overrides = WRAPPERS[cls]
    inner = Probe()
    assert unfaithful_members(factory(inner), [inner]) == []
    # Forwarding lives in DeviceWrapper alone: the class body defines
    # only what the wrapper gates or extends.
    assert set(vars(cls)) & set(device_surface()) == overrides


def test_striped_composite_answers_like_one_device_over_its_members():
    members = [Probe(STRIPE_HEADER_SIZE + CAPACITY, f"m{i}") for i in range(2)]
    striped = StripedDevice.create(members, stripe_size=ALIGN)
    assert unfaithful_members(striped, members) == []


def test_a_forgetful_wrapper_is_caught():
    class Forgetful(PersistentDevice):
        """The pre-DeviceWrapper idiom: forward the abstract methods by
        hand, forget everything with a base-class default."""

        def __init__(self, inner):
            super().__init__(inner.capacity, f"forgetful({inner.name})")
            self._inner = inner

        def write(self, offset, data):
            self._inner.write(offset, data)

        def read(self, offset, length):
            return self._inner.read(offset, length)

        def persist(self, offset, length):
            self._inner.persist(offset, length)

    inner = Probe()
    assert unfaithful_members(Forgetful(inner), [inner]) == [
        "attach_metrics", "preferred_align", "readinto",
    ]
