"""Buffer-protocol acceptance across every device ``write()`` and
``readinto()``.

The zero-copy persist path hands devices whatever buffer the caller
owns — bytes, bytearrays, memoryview slices, numpy arrays — so each
device must accept any C-contiguous buffer and reject non-contiguous
views (slicing them zero-copy is impossible) with a clear error.  The
restore path is the mirror image: ``readinto`` fills the caller's buffer
and must agree with ``read`` byte for byte, error for error and count for
count, on every device and through every wrapper.
"""

import numpy as np
import pytest

from repro.errors import (
    CorruptCheckpointError,
    CrashedDeviceError,
    DeviceClosedError,
    OutOfSpaceError,
    StorageError,
    TransientIOError,
)
from repro.storage.device import PersistentDevice, as_view
from repro.storage.faults import CrashPointDevice, TransientFaultDevice
from repro.storage.pmem import SimulatedPMEM
from repro.storage.remote import RemoteStore
from repro.storage.ssd import FileBackedSSD, InMemorySSD
from repro.storage.striped import STRIPE_HEADER_SIZE, StripedDevice
from repro.storage.tiering import TieredDevice

CAPACITY = 4096
PAYLOAD = bytes(range(256)) * 4
STRIPE = 256


class ReadOnlyKnowsRead(PersistentDevice):
    """A subclass written before ``readinto`` existed: the base-class
    default must carry it."""

    def __init__(self, inner):
        super().__init__(inner.capacity, "legacy")
        self.inner = inner

    def write(self, offset, data):
        self.inner.write(offset, data)

    def read(self, offset, length):
        return self.inner.read(offset, length)

    def persist(self, offset, length):
        self.inner.persist(offset, length)


def _striped():
    members = [
        InMemorySSD(STRIPE_HEADER_SIZE + CAPACITY // 2, name=f"m{i}")
        for i in range(2)
    ]
    return StripedDevice.create(members, stripe_size=STRIPE)


@pytest.fixture(params=["file-ssd", "mem-ssd", "pmem", "crashpoint",
                        "transient", "tiered", "striped", "read-only-subclass"])
def device(request, tmp_path):
    dev = {
        "file-ssd": lambda: FileBackedSSD(str(tmp_path / "buf.dat"), CAPACITY),
        "mem-ssd": lambda: InMemorySSD(CAPACITY),
        "pmem": lambda: SimulatedPMEM(CAPACITY),
        "crashpoint": lambda: CrashPointDevice(InMemorySSD(CAPACITY)),
        # Gated on persists, so reads and writes pass straight through.
        "transient": lambda: TransientFaultDevice(
            InMemorySSD(CAPACITY), kind="persist", occurrence=10**6),
        "tiered": lambda: TieredDevice(
            InMemorySSD(CAPACITY), InMemorySSD(CAPACITY), RemoteStore("r")),
        "striped": _striped,
        "read-only-subclass": lambda: ReadOnlyKnowsRead(InMemorySSD(CAPACITY)),
    }[request.param]()
    yield dev
    dev.close()


def _stats_devices(dev):
    """The concrete devices whose ``stats`` a read on ``dev`` lands in."""
    if hasattr(dev, "members"):
        return list(dev.members)
    for attr in ("inner", "hot"):
        if hasattr(dev, attr):
            return [getattr(dev, attr)]
    return [dev]


def _read_counters(dev):
    devices = _stats_devices(dev)
    return (sum(d.stats.read_ops for d in devices),
            sum(d.stats.bytes_read for d in devices))


def _outcome(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type IS the result
        return type(exc)
    return None


@pytest.mark.parametrize(
    "wrap",
    [
        bytes,
        bytearray,
        memoryview,
        lambda raw: memoryview(raw)[100:612],
        lambda raw: np.frombuffer(raw, dtype=np.uint8),
        lambda raw: np.frombuffer(raw, dtype=np.float64),
    ],
    ids=["bytes", "bytearray", "memoryview", "view-slice", "np-uint8",
         "np-float64"],
)
def test_write_accepts_any_contiguous_buffer(device, wrap):
    payload = wrap(PAYLOAD)
    view = as_view(payload)
    device.write(0, payload)
    device.persist(0, len(view))
    assert device.read(0, len(view)) == bytes(view)


def test_write_rejects_non_contiguous_view(device):
    strided = memoryview(PAYLOAD)[::2]
    with pytest.raises(StorageError, match="non-contiguous"):
        device.write(0, strided)


def test_write_rejects_non_buffer_payload(device):
    with pytest.raises(StorageError, match="buffer protocol"):
        device.write(0, "not bytes")


class TestReadinto:
    @pytest.mark.parametrize("offset,length", [
        (0, 1024), (1, 1000), (STRIPE - 3, 2 * STRIPE + 7), (513, 0),
        (CAPACITY - 5, 5),
    ])
    def test_matches_read_at_unaligned_offsets(self, device, offset, length):
        device.write(0, PAYLOAD * 4)
        dest = bytearray(b"\xaa" * length)
        device.readinto(offset, dest)
        assert dest == device.read(offset, length)

    @pytest.mark.parametrize(
        "make",
        [bytearray, lambda n: memoryview(bytearray(n + 9))[9:],
         lambda n: np.empty(n, dtype=np.uint8),
         lambda n: np.empty(n // 8, dtype=np.float64)],
        ids=["bytearray", "view-slice", "np-uint8", "np-float64"],
    )
    def test_fills_any_writable_contiguous_buffer(self, device, make):
        device.write(64, PAYLOAD)
        dest = make(512)
        device.readinto(64, dest)
        assert bytes(as_view(dest)) == PAYLOAD[:512]

    def test_rejects_non_contiguous_dest(self, device):
        with pytest.raises(StorageError, match="non-contiguous"):
            device.readinto(0, memoryview(bytearray(64))[::2])

    def test_rejects_read_only_dest(self, device):
        with pytest.raises(StorageError, match="read-only"):
            device.readinto(0, bytes(16))

    def test_rejects_out_of_range_spans(self, device):
        with pytest.raises(OutOfSpaceError):
            device.readinto(CAPACITY - 4, bytearray(5))
        with pytest.raises(StorageError):
            device.readinto(-1, bytearray(4))

    def test_counts_like_one_read(self, device):
        device.write(0, PAYLOAD)
        ops, nbytes = _read_counters(device)
        device.read(7, 300)
        ops_per_read = _read_counters(device)[0] - ops
        ops, nbytes = _read_counters(device)
        device.readinto(7, bytearray(300))
        after_ops, after_bytes = _read_counters(device)
        assert after_bytes - nbytes == 300
        if not hasattr(device, "members"):
            assert after_ops - ops == ops_per_read == 1
        else:
            # One member read per stripe segment the span touches.
            assert after_ops - ops == 2

    def test_closed_device_fails_like_read(self, device):
        device.close()
        failure = _outcome(lambda: device.read(0, 8))
        assert _outcome(lambda: device.readinto(0, bytearray(8))) is failure
        if _stats_devices(device) == [device] or hasattr(device, "members"):
            assert failure is DeviceClosedError

    def test_crashed_device_fails_like_read(self, device):
        crashable = [d for d in _stats_devices(device) if hasattr(d, "crash")]
        if not crashable:
            pytest.skip("a real file has no crash model")
        crashable[0].crash()
        # A stripe set reports a member lost under a read as the same
        # typed corruption its open() raises; everything else passes
        # the power-loss error through.
        expected = (
            CorruptCheckpointError if hasattr(device, "members")
            else CrashedDeviceError
        )
        assert _outcome(lambda: device.read(0, 8)) is expected
        assert _outcome(lambda: device.readinto(0, bytearray(8))) is expected

    def test_reports_one_read_op_to_attached_metrics(self, device):
        from repro.obs.metrics import M, MetricsRegistry

        registry = MetricsRegistry()
        _stats_devices(device)[0].attach_metrics(registry, "d")
        device.readinto(0, bytearray(128))
        assert registry.value(M.DEVICE_OPS, device="d", op="read") == 1
        assert registry.value(M.DEVICE_OP_BYTES, device="d", op="read") == 128


def test_transient_read_fault_gates_readinto():
    inner = InMemorySSD(CAPACITY)
    inner.write(0, PAYLOAD)
    flaky = TransientFaultDevice(inner, kind="read", occurrence=1, times=1)
    dest = bytearray(16)
    flaky.readinto(0, dest)  # occurrence 0 passes
    with pytest.raises(TransientIOError):
        flaky.readinto(16, dest)
    assert flaky.faults_injected == 1
    flaky.readinto(16, dest)  # the retry gets through
    assert dest == PAYLOAD[16:32]
    # read and readinto share ONE occurrence counter.
    mixed = TransientFaultDevice(inner, kind="read", occurrence=1, times=1)
    mixed.read(0, 4)
    with pytest.raises(TransientIOError):
        mixed.readinto(0, dest)


class TestAsView:
    def test_returns_flat_uint8_view(self):
        view = as_view(bytearray(b"abcd"))
        assert view.format == "B"
        assert view.ndim == 1
        assert bytes(view) == b"abcd"

    def test_memoryview_passthrough_is_zero_copy(self):
        raw = bytearray(b"abcdef")
        view = as_view(memoryview(raw))
        raw[0] = ord("z")
        assert bytes(view[:1]) == b"z"

    def test_multidim_contiguous_array_flattened(self):
        arr = np.arange(12, dtype=np.int32).reshape(3, 4)
        view = as_view(arr)
        assert len(view) == arr.nbytes
        assert bytes(view) == arr.tobytes()

    def test_non_contiguous_array_rejected(self):
        arr = np.arange(16, dtype=np.uint8).reshape(4, 4).T
        with pytest.raises(StorageError, match="non-contiguous"):
            as_view(arr)

    def test_slicing_result_is_zero_copy(self):
        raw = bytearray(1 << 20)
        view = as_view(raw)
        half = view[: 1 << 19]
        raw[0] = 7
        assert half[0] == 7
