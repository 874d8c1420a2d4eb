"""Striped multi-device persist: one checkpoint across N backends.

PCcheck's persist phase is device-bound; once writer parallelism
saturates one SSD the only way forward is more devices.  FastPersist
(PAPERS.md) demonstrates the recipe — shard each checkpoint write across
files/devices so aggregate bandwidth scales with the device count — and
TierCheck motivates making the striped layout *self-describing* so later
tiering work can move stripes independently.

:class:`StripedDevice` is a RAID-0-style composite that IS a
:class:`~repro.storage.device.PersistentDevice`: logical bytes
interleave across the member devices in ``stripe_size`` units, so the
engine, the layout, recovery and the crash sweeps run on top of it
unchanged.  Each member dedicates an aligned header region to a
CRC-protected **stripe manifest** recording its index, the member count,
the stripe size and the usable extent; :meth:`StripedDevice.open`
validates every manifest and turns a missing, corrupt, reordered or dead
member into a typed :class:`~repro.errors.CorruptCheckpointError` naming
the device, and a member that dies under a later ``read``/``readinto``
raises the same error — recovery never silently reassembles a short
payload.  (Writes and fences keep raising
:class:`~repro.errors.CrashedDeviceError`: that is power loss, not a
degraded read.)

``readinto`` lands each member's segment directly in its slice of the
caller's buffer, so reassembly costs no copy beyond the members' own
reads.  ``persist`` issues one *covering* fence per member — in
parallel when more than one member owns bytes of the range — so a
:class:`~repro.core.writer.ParallelWriter` over a striped device needs
nothing special: the engine's one covering commit fence fans out per
member.

Layout of each member device::

    +--------------------+ 0
    | stripe manifest    |  CRC-protected, STRIPE_HEADER_SIZE reserved
    +--------------------+ STRIPE_HEADER_SIZE
    | stripe row 0       |  logical chunks  i*n + index
    | stripe row 1       |  (n = member count, one stripe_size each)
    | ...                |
    +--------------------+

Logical byte ``l`` lives in chunk ``l // stripe_size``; chunk ``c`` is
owned by member ``c % n`` at row ``c // n``.
"""

from __future__ import annotations

import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import CorruptCheckpointError, CrashedDeviceError, StorageError
from repro.storage.device import Buffer, PersistentDevice, as_dest_view, as_view

#: Reserved space at the head of every member for its stripe manifest
#: (aligned so the data region starts on a page boundary).
STRIPE_HEADER_SIZE: int = 4096

_STRIPE_MAGIC = b"PCSTRIP1"
# magic(8s) version(I) member_index(I) member_count(I) stripe_size(Q)
# usable_per_member(Q)
_STRIPE_HEADER = struct.Struct("<8sIIIQQ")
_STRIPE_CRC = struct.Struct("<I")
_STRIPE_VERSION = 1


@dataclass(frozen=True)
class StripeManifest:
    """One member's self-description of the stripe set it belongs to."""

    member_index: int
    member_count: int
    stripe_size: int
    #: Striped data bytes each member holds (multiple of ``stripe_size``).
    usable_per_member: int


def encode_stripe_manifest(manifest: StripeManifest) -> bytes:
    """Serialize a manifest with its protecting CRC."""
    body = _STRIPE_HEADER.pack(
        _STRIPE_MAGIC,
        _STRIPE_VERSION,
        manifest.member_index,
        manifest.member_count,
        manifest.stripe_size,
        manifest.usable_per_member,
    )
    return body + _STRIPE_CRC.pack(zlib.crc32(body))


def decode_stripe_manifest(raw: bytes, device_name: str) -> StripeManifest:
    """Parse and validate a member's manifest.

    Raises :class:`~repro.errors.CorruptCheckpointError` naming
    ``device_name`` on truncation, CRC mismatch, wrong magic or an
    unknown version.
    """
    needed = _STRIPE_HEADER.size + _STRIPE_CRC.size
    if len(raw) < needed:
        raise CorruptCheckpointError(
            f"stripe manifest on {device_name} is truncated "
            f"({len(raw)} of {needed} bytes)"
        )
    body = raw[: _STRIPE_HEADER.size]
    (crc,) = _STRIPE_CRC.unpack_from(raw, _STRIPE_HEADER.size)
    if zlib.crc32(body) != crc:
        raise CorruptCheckpointError(
            f"stripe manifest CRC mismatch on {device_name}"
        )
    magic, version, index, count, stripe_size, usable = _STRIPE_HEADER.unpack(
        body
    )
    if magic != _STRIPE_MAGIC:
        raise CorruptCheckpointError(
            f"{device_name} is not a stripe member (bad manifest magic)"
        )
    if version != _STRIPE_VERSION:
        raise CorruptCheckpointError(
            f"unsupported stripe manifest version {version} on {device_name}"
        )
    return StripeManifest(
        member_index=index,
        member_count=count,
        stripe_size=stripe_size,
        usable_per_member=usable,
    )


def read_stripe_manifest(member: PersistentDevice) -> StripeManifest:
    """Read and validate ``member``'s own manifest; a member that cannot
    even be read (dead device) is the same typed
    :class:`~repro.errors.CorruptCheckpointError`, naming it."""
    try:
        raw = member.read(0, _STRIPE_HEADER.size + _STRIPE_CRC.size)
    except StorageError as exc:
        raise CorruptCheckpointError(
            f"stripe member {member.name} is unreadable: {exc}"
        ) from exc
    return decode_stripe_manifest(raw, member.name)


class StripedDevice(PersistentDevice):
    """A RAID-0 interleave over N member :class:`PersistentDevice`\\ s.

    Construct with :meth:`create` (writes fresh manifests) or
    :meth:`open` (validates existing ones).  The composite owns its
    members: :meth:`close` closes them.
    """

    def __init__(
        self,
        members: Sequence[PersistentDevice],
        stripe_size: int,
        usable_per_member: int,
    ) -> None:
        if not members:
            raise StorageError("a striped device needs at least one member")
        if stripe_size <= 0:
            raise StorageError(
                f"stripe size must be positive, got {stripe_size}"
            )
        if usable_per_member <= 0 or usable_per_member % stripe_size:
            raise StorageError(
                f"usable extent {usable_per_member} must be a positive "
                f"multiple of the stripe size {stripe_size}"
            )
        name = "striped(" + "+".join(member.name for member in members) + ")"
        super().__init__(len(members) * usable_per_member, name)
        self._members: Tuple[PersistentDevice, ...] = tuple(members)
        self._stripe = stripe_size
        self._usable = usable_per_member
        for member in self._members:
            needed = STRIPE_HEADER_SIZE + usable_per_member
            if member.capacity < needed:
                raise StorageError(
                    f"stripe member {member.name} holds {member.capacity} "
                    f"bytes but the stripe geometry needs {needed}"
                )
        self._fence_lock = threading.Lock()
        self._fences: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def create(
        cls, members: Sequence[PersistentDevice], stripe_size: int
    ) -> "StripedDevice":
        """Format ``members`` as a fresh stripe set.

        The usable extent is the largest whole-stripe extent the
        *smallest* member can hold; every member gets its CRC-protected
        manifest written and fenced before the device is handed back.
        """
        if not members:
            raise StorageError("a striped device needs at least one member")
        if stripe_size <= 0:
            raise StorageError(
                f"stripe size must be positive, got {stripe_size}"
            )
        usable = min(
            (member.capacity - STRIPE_HEADER_SIZE) // stripe_size
            for member in members
        ) * stripe_size
        if usable <= 0:
            smallest = min(members, key=lambda member: member.capacity)
            raise StorageError(
                f"stripe member {smallest.name} is too small for even one "
                f"{stripe_size}-byte stripe after the "
                f"{STRIPE_HEADER_SIZE}-byte manifest"
            )
        for index, member in enumerate(members):
            manifest = StripeManifest(
                member_index=index,
                member_count=len(members),
                stripe_size=stripe_size,
                usable_per_member=usable,
            )
            member.write(0, encode_stripe_manifest(manifest))
            member.persist(0, STRIPE_HEADER_SIZE)
        return cls(members, stripe_size, usable)

    @classmethod
    def open(cls, members: Sequence[PersistentDevice]) -> "StripedDevice":
        """Reassemble an existing stripe set, validating every manifest.

        A member whose manifest is missing, torn, or claims a different
        position/geometry — or a member that cannot even be read (dead
        device) — raises :class:`~repro.errors.CorruptCheckpointError`
        naming that device.
        """
        if not members:
            raise StorageError("a striped device needs at least one member")
        manifests: List[StripeManifest] = []
        for index, member in enumerate(members):
            manifest = read_stripe_manifest(member)
            if manifest.member_index != index:
                raise CorruptCheckpointError(
                    f"stripe member {member.name} claims index "
                    f"{manifest.member_index} but was passed at position "
                    f"{index} — members missing or out of order?"
                )
            if manifest.member_count != len(members):
                raise CorruptCheckpointError(
                    f"stripe member {member.name} belongs to a "
                    f"{manifest.member_count}-way stripe set; "
                    f"{len(members)} members were supplied"
                )
            manifests.append(manifest)

        first = manifests[0]
        for member, manifest in zip(members, manifests):
            if (
                manifest.stripe_size != first.stripe_size
                or manifest.usable_per_member != first.usable_per_member
            ):
                raise CorruptCheckpointError(
                    f"stripe member {member.name} disagrees about the "
                    f"stripe geometry ({manifest.stripe_size}/"
                    f"{manifest.usable_per_member} vs {first.stripe_size}/"
                    f"{first.usable_per_member})"
                )
        return cls(members, first.stripe_size, first.usable_per_member)

    # ------------------------------------------------------------------
    # geometry

    @property
    def members(self) -> Tuple[PersistentDevice, ...]:
        """The member devices, in stripe order."""
        return self._members

    @property
    def stripe_size(self) -> int:
        """Bytes per stripe chunk."""
        return self._stripe

    @property
    def preferred_align(self) -> int:
        """Writer shares should not straddle stripe boundaries."""
        return self._stripe

    def _segments(
        self, offset: int, length: int
    ) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(member, member_offset, logical_offset, seg_len)`` for
        each maximal single-member run of ``[offset, offset + length)``."""
        n = len(self._members)
        pos = offset
        end = offset + length
        while pos < end:
            chunk, within = divmod(pos, self._stripe)
            member = chunk % n
            row = chunk // n
            seg = min(self._stripe - within, end - pos)
            yield (
                member,
                STRIPE_HEADER_SIZE + row * self._stripe + within,
                pos,
                seg,
            )
            pos += seg

    def _member_spans(
        self, offset: int, length: int
    ) -> Dict[int, Tuple[int, int]]:
        """Covering ``[lo, hi)`` member-space span per member owning bytes
        of the logical range: from the first to the last chunk each
        member owns in it, so the cost is per member, not per stripe (a
        commit's covering fence spans most of the region)."""
        spans: Dict[int, Tuple[int, int]] = {}
        if length <= 0:
            return spans
        n, stripe = len(self._members), self._stripe
        end = offset + length
        first, last = offset // stripe, (end - 1) // stripe
        for member in range(n):
            lo_chunk = first + (member - first) % n
            if lo_chunk > last:
                continue
            hi_chunk = last - (last - member) % n
            lo = max(offset, lo_chunk * stripe) - lo_chunk * stripe
            hi = min(end, (hi_chunk + 1) * stripe) - hi_chunk * stripe
            spans[member] = (
                STRIPE_HEADER_SIZE + lo_chunk // n * stripe + lo,
                STRIPE_HEADER_SIZE + hi_chunk // n * stripe + hi,
            )
        return spans

    # ------------------------------------------------------------------
    # device interface

    def write(self, offset: int, data: Buffer) -> None:
        self._check_open()
        view = as_view(data)
        length = len(view)
        self._check_range(offset, length)
        start = self._obs_start()
        for member, m_off, logical, seg in self._segments(offset, length):
            rel = logical - offset
            # Zero-copy: each member gets an O(1) slice of the payload.
            self._members[member].write(m_off, view[rel : rel + seg])
        self._obs_op("write", length, start)

    def read(self, offset: int, length: int) -> bytes:
        self._check_range(offset, length)
        staging = bytearray(length)
        self.readinto(offset, staging)
        return bytes(staging)

    def readinto(self, offset: int, dest: Buffer) -> None:
        self._check_open()
        view = as_dest_view(dest)
        length = len(view)
        self._check_range(offset, length)
        start = self._obs_start()
        try:
            for member, m_off, logical, seg in self._segments(offset, length):
                rel = logical - offset
                # Stripe reassembly in place: each member's segment lands
                # directly in its slice of the caller's buffer.
                self._members[member].readinto(m_off, view[rel : rel + seg])
        except CrashedDeviceError as exc:
            # ONE failure mode for a degraded stripe set, at open or
            # mid-read: never a short payload.  Reads only — writes and
            # fences keep raising CrashedDeviceError (power loss).
            raise CorruptCheckpointError(
                f"stripe member {self._members[member].name} failed "
                f"during a striped read: {exc}"
            ) from exc
        self._obs_op("read", length, start)

    def persist(self, offset: int, length: int) -> None:
        """Per-device covering fences: ONE fence per member owning bytes
        of the range, issued in parallel when several members do."""
        self._check_open()
        self._check_range(offset, length)
        start = self._obs_start()
        spans = sorted(self._member_spans(offset, length).items())
        if len(spans) <= 1:
            for member, (lo, hi) in spans:
                self._members[member].persist(lo, hi - lo)
        else:
            futures = [
                self._fence_pool().submit(
                    self._members[member].persist, lo, hi - lo
                )
                for member, (lo, hi) in spans
            ]
            # Wait for EVERY fence before propagating, so no member is
            # left with an in-flight fence after the error surfaces.
            errors = [future.exception() for future in futures]
            for error in errors:
                if error is not None:
                    raise error
        self._obs_op("persist", length, start)

    def _fence_pool(self) -> ThreadPoolExecutor:
        with self._fence_lock:
            if self._fences is None:
                self._fences = ThreadPoolExecutor(
                    max_workers=len(self._members),
                    thread_name_prefix="pccheck-stripe-fence",
                )
            return self._fences

    def close(self) -> None:
        if not self.closed:
            with self._fence_lock:
                if self._fences is not None:
                    self._fences.shutdown(wait=True)
                    self._fences = None
            for member in self._members:
                member.close()
        super().close()

