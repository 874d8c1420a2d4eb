"""Tests for checkpoint metadata records and payload CRCs."""

import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import meta as meta_module
from repro.core.engine import CheckpointEngine
from repro.core.layout import DeviceLayout, Geometry
from repro.core.meta import (
    PAYLOAD_CRC_IMPL,
    RECORD_SIZE,
    CheckMeta,
    _crc_shift,
    crc32_combine,
    decode_commit_record,
    decode_slot_header,
    encode_commit_record,
    encode_slot_header,
    payload_crc,
)
from repro.core.recovery import recover
from repro.errors import CorruptCheckpointError
from repro.storage.ssd import InMemorySSD

META = CheckMeta(counter=7, slot=2, payload_len=1234, payload_crc=0xDEADBEEF, step=42)


class TestEncodeDecode:
    def test_slot_header_roundtrip(self):
        assert decode_slot_header(encode_slot_header(META)) == META

    def test_commit_record_roundtrip(self):
        assert decode_commit_record(encode_commit_record(META)) == META

    def test_records_are_fixed_size(self):
        assert len(encode_slot_header(META)) == RECORD_SIZE
        assert len(encode_commit_record(META)) == RECORD_SIZE

    def test_magic_disambiguates_record_kinds(self):
        assert decode_commit_record(encode_slot_header(META)) is None
        assert decode_slot_header(encode_commit_record(META)) is None

    def test_blank_record_decodes_to_none(self):
        assert decode_slot_header(bytes(RECORD_SIZE)) is None
        assert decode_commit_record(bytes(RECORD_SIZE)) is None

    def test_wrong_length_decodes_to_none(self):
        assert decode_slot_header(b"short") is None

    def test_single_flipped_bit_is_detected(self):
        raw = bytearray(encode_slot_header(META))
        raw[12] ^= 0x01
        assert decode_slot_header(bytes(raw)) is None

    @given(
        counter=st.integers(0, 2**63 - 1),
        slot=st.integers(0, 2**31 - 1),
        length=st.integers(0, 2**62),
        crc=st.integers(0, 2**32 - 1),
        step=st.integers(0, 2**62),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_over_full_field_ranges(self, counter, slot, length, crc, step):
        meta = CheckMeta(
            counter=counter, slot=slot, payload_len=length, payload_crc=crc, step=step
        )
        assert decode_slot_header(encode_slot_header(meta)) == meta

    @given(corruption=st.integers(0, RECORD_SIZE - 1), bit=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_any_single_bit_corruption_detected(self, corruption, bit):
        raw = bytearray(encode_commit_record(META))
        raw[corruption] ^= 1 << bit
        assert decode_commit_record(bytes(raw)) is None


class TestValidation:
    def test_negative_counter_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            CheckMeta(counter=-1, slot=0, payload_len=0, payload_crc=0)

    def test_negative_slot_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            CheckMeta(counter=0, slot=-1, payload_len=0, payload_crc=0)

    def test_negative_length_rejected(self):
        with pytest.raises(CorruptCheckpointError):
            CheckMeta(counter=0, slot=0, payload_len=-5, payload_crc=0)

    def test_is_newer_than_orders_by_counter(self):
        old = CheckMeta(counter=1, slot=0, payload_len=0, payload_crc=0)
        new = CheckMeta(counter=2, slot=1, payload_len=0, payload_crc=0)
        assert new.is_newer_than(old)
        assert not old.is_newer_than(new)
        assert old.is_newer_than(None)


@pytest.fixture
def zlib_fallback(monkeypatch):
    """Force the fallback backend, as on a host without libdeflate."""
    monkeypatch.setattr(meta_module, "_crc32", zlib.crc32)


@pytest.fixture(params=["active", "zlib"])
def backend(request):
    """Run a test under the backend chosen at import and under zlib."""
    if request.param == "zlib":
        request.getfixturevalue("zlib_fallback")
    return request.param


def pattern(size):
    return (np.arange(size, dtype=np.uint32) * np.uint32(2654435761) >> 7).astype(np.uint8).tobytes()


class TestPayloadCrc:
    def test_stable_for_same_payload(self):
        assert payload_crc(b"abc") == payload_crc(b"abc")

    def test_differs_for_different_payload(self):
        assert payload_crc(b"abc") != payload_crc(b"abd")

    def test_empty_payload(self):
        assert payload_crc(b"") == 0

    @pytest.mark.skipif(meta_module._LIBDEFLATE_CRC32 is None,
                        reason="libdeflate cannot be loaded on this host")
    def test_libdeflate_is_the_active_backend_when_installed(self):
        assert PAYLOAD_CRC_IMPL == "libdeflate"

    @pytest.mark.parametrize("size", [
        0, 1, 63, 4096, 256 * 1024 + 7, 8 * 1024 * 1024,
    ])
    def test_equals_zlib_at_every_size(self, backend, size):
        data = pattern(size)
        assert payload_crc(data) == zlib.crc32(data)

    @pytest.mark.parametrize("kind", [
        "bytes", "bytearray", "numpy", "readonly-slice", "writable-slice",
    ])
    def test_equals_zlib_on_every_buffer_kind(self, backend, kind):
        raw = pattern(10_000)
        data = {
            "bytes": lambda: raw,
            "bytearray": lambda: bytearray(raw),
            "numpy": lambda: np.frombuffer(raw, dtype=np.float32).reshape(50, 50),
            "readonly-slice": lambda: memoryview(raw)[13:9_001],
            "writable-slice": lambda: memoryview(bytearray(raw))[13:9_001],
        }[kind]()
        assert payload_crc(data) == zlib.crc32(data)

    def test_a_running_crc_continues_across_a_split(self, backend):
        data = pattern(100_003)
        view = memoryview(data)
        for cut in (0, 1, 4096, 50_000, len(data)):
            assert payload_crc(view[cut:], payload_crc(view[:cut])) == zlib.crc32(data)

    def test_chunk_crcs_combine_to_the_whole(self, backend):
        data = pattern(1_000_000)
        view, chunk, crc = memoryview(data), 65_536, 0
        for lo in range(0, len(data), chunk):
            piece = view[lo:lo + chunk]
            crc = crc32_combine(crc, payload_crc(piece), len(piece))
        assert crc == zlib.crc32(data)

    def test_a_non_contiguous_view_is_refused_like_zlib(self, backend):
        strided = memoryview(bytearray(64))[::2]
        with pytest.raises(BufferError):
            zlib.crc32(strided)
        with pytest.raises(BufferError):
            payload_crc(strided)

    def test_concurrent_callers_get_their_own_crc(self, backend):
        buffers = [pattern(1 << 20)[i:] for i in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda b: payload_crc(bytearray(b)), buffers * 4))
        assert got == [zlib.crc32(b) for b in buffers * 4]


def _engine_region():
    payload_capacity = 300_000
    slot_size = payload_capacity + RECORD_SIZE
    geometry = Geometry(num_slots=3, slot_size=slot_size)
    device = InMemorySSD(capacity=geometry.total_size)
    layout = DeviceLayout.format(device, num_slots=3, slot_size=slot_size)
    return CheckpointEngine(layout, writer_threads=2)


class TestBackendsShareOneFormat:
    """The on-media CRC does not depend on which backend computed it."""

    @pytest.mark.parametrize("saved_under", ["active", "zlib"])
    def test_a_region_saved_under_one_backend_recovers_under_the_other(
        self, monkeypatch, saved_under
    ):
        payload = pattern(250_001)
        engine = _engine_region()
        with monkeypatch.context() as patch:
            if saved_under == "zlib":
                patch.setattr(meta_module, "_crc32", zlib.crc32)
            engine.checkpoint(payload, step=1)
        if saved_under == "active":
            monkeypatch.setattr(meta_module, "_crc32", zlib.crc32)
        found = recover(engine.layout, chunk_size=65_536)
        assert found.payload == payload
        assert found.meta.payload_crc == zlib.crc32(payload)
        engine.close()


def reference_combine(crc1, crc2, len2):
    """Independent oracle for :func:`crc32_combine`: crc1 · x^(8·len2) +
    crc2 modulo the CRC-32 polynomial, in plain (unreflected) GF(2)
    arithmetic with square-and-multiply over the bit length."""
    poly = 0x104C11DB7

    def mulmod(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> 32:
                a ^= poly
        return out

    def reflect(value):
        return int(f"{value:032b}"[::-1], 2)

    shift, base, bits = 1, 2, 8 * len2  # x^0, x^1
    while bits:
        if bits & 1:
            shift = mulmod(shift, base)
        base = mulmod(base, base)
        bits >>= 1
    return reflect(mulmod(reflect(crc1), shift)) ^ crc2


CRC = st.integers(0, 2**32 - 1)


class TestCrc32Combine:
    @given(a=st.binary(max_size=300), b=st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_combine_is_the_crc_of_the_concatenation(self, a, b):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @pytest.mark.parametrize("len_b", [
        0, 1, 7, 4095,                      # empty, one byte, odd lengths
        (1 << 20) - 1, 0b1011_0111_0110_1101,  # many set bits
        4 * 1024 * 1024,                    # the default read chunk
        4 * 1024 * 1024 - 3,                # a short last chunk
    ])
    def test_chunk_lengths_against_zlib(self, len_b):
        a = bytes(range(256)) * 3 + b"\x01"
        b = bytes((i * 131 + 7) & 0xFF for i in range(len_b))
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @given(a=st.binary(max_size=64), b=st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_reference_oracle_agrees_with_zlib(self, a, b):
        assert reference_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    @pytest.mark.parametrize("len_b", [
        2**32 - 1, 2**32, 2**32 + 1, 2**33 + 12345, 2**40 - 1, 2**63 + 5,
    ])
    def test_lengths_past_four_gib_match_the_oracle(self, len_b):
        crc1, crc2 = 0x1234ABCD, 0xCAFEF00D
        assert crc32_combine(crc1, crc2, len_b) == reference_combine(crc1, crc2, len_b)

    @given(crc1=CRC, crc2=CRC, crc3=CRC,
           len2=st.integers(0, 2**40), len3=st.integers(0, 2**40))
    @settings(max_examples=100, deadline=None)
    def test_combining_is_associative(self, crc1, crc2, crc3, len2, len3):
        left = crc32_combine(crc32_combine(crc1, crc2, len2), crc3, len3)
        right = crc32_combine(crc1, crc32_combine(crc2, crc3, len3), len2 + len3)
        assert left == right

    def test_negative_length_is_refused(self):
        with pytest.raises(ValueError):
            crc32_combine(0, 0, -1)

    def test_operator_cache_stays_bounded(self):
        info = _crc_shift.cache_info()
        assert info.maxsize is not None
        for len2 in range(1, 4 * info.maxsize):
            crc32_combine(0xFFFFFFFF, 0, len2)
        assert _crc_shift.cache_info().currsize <= info.maxsize
