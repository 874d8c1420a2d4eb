"""Benchmark-owned tracing: spans recorded from outside ``src/``.

The traced pass wraps the two seams the public API lets a caller inject —
the :class:`~repro.storage.device.PersistentDevice` and the
:class:`~repro.core.snapshot.SnapshotSource` — plus the calls the generator
thread makes, and records ``(name, start, end, parent, checkpoint id)`` for
each.  Spans are kept in memory and written as Chrome ``trace_event`` JSON
when the run ends.  Nothing here is imported by an untraced run's hot loop.
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench.harness import clock
from repro.obs.metrics import M, MetricsRegistry
from repro.storage.device import PersistentDevice

#: Cap on events written to a trace file (metrics always use every span).
MAX_TRACE_EVENTS = 40_000
#: Most requests any workload has open at once (``service_mix``: 8).
MAX_OPEN_ROOTS = 16


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    tid: int
    parent: Optional[int] = None
    #: Checkpoint/request identifier shared by the spans of one request.
    ckpt: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink; ``list.append`` keeps it thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        ckpt: Optional[int] = None,
        parent: Optional[int] = None,
        span_id: Optional[int] = None,
        **args: object,
    ) -> int:
        """Record a finished span.  With no explicit ``parent`` it nests
        under the span currently open on the calling thread, if any."""
        if parent is None:
            stack = getattr(self._local, "stack", None)
            if stack:
                parent = stack[-1]
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append(
            Span(span_id, name, start, end, threading.get_ident(),
                 parent=parent, ckpt=ckpt, args=args)
        )
        return span_id

    @contextmanager
    def span(self, name: str, *, ckpt: Optional[int] = None, **args: object):
        """Time a block on the calling thread; spans opened inside it
        (same thread) become its children."""
        span_id = next(self._ids)  # children need it before it is recorded
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span_id)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            stack.pop()
            self.add(name, start, end, ckpt=ckpt, span_id=span_id, **args)

    def clear(self) -> None:
        self.spans = []


# ----------------------------------------------------------------------
# wrappers


class TracedDevice(PersistentDevice):
    """Pass-through device that records ``ssd.*`` spans.

    Forwards everything the stack reads off a device — ``preferred_align``
    above all: a wrapper that drops it silently moves every payload write
    onto the buffered fallback, which is this repo's known bug class.
    :func:`assert_forwards` checks it.
    """

    def __init__(self, inner: PersistentDevice, recorder: SpanRecorder) -> None:
        super().__init__(inner.capacity, inner.name)
        self.inner = inner
        self._recorder = recorder

    @property
    def preferred_align(self) -> int:
        return self.inner.preferred_align

    @property
    def stats(self):
        return self.inner.stats

    def attach_metrics(self, metrics, label=None) -> None:
        self.inner.attach_metrics(metrics, label)

    def write(self, offset: int, data) -> None:
        start = clock()
        self.inner.write(offset, data)
        self._recorder.add("ssd.write", start, clock(), offset=offset,
                           nbytes=memoryview(data).nbytes)

    def read(self, offset: int, length: int) -> bytes:
        start = clock()
        data = self.inner.read(offset, length)
        self._recorder.add("ssd.read", start, clock(), offset=offset,
                           nbytes=length)
        return data

    def persist(self, offset: int, length: int) -> None:
        start = clock()
        self.inner.persist(offset, length)
        self._recorder.add("ssd.persist", start, clock(), offset=offset,
                           nbytes=length)

    def close(self) -> None:
        self.inner.close()
        super().close()


class TracedSource:
    """Pass-through :class:`~repro.core.snapshot.SnapshotSource` recording
    one ``snapshot.capture_chunk`` span per chunk, tagged with its request."""

    def __init__(self, inner, recorder: SpanRecorder, ckpt: int) -> None:
        self._inner = inner
        self._recorder = recorder
        self._ckpt = ckpt

    def snapshot_size(self) -> int:
        return self._inner.snapshot_size()

    def capture_chunk(self, offset: int, length: int, dest) -> None:
        start = clock()
        self._inner.capture_chunk(offset, length, dest)
        self._recorder.add("snapshot.capture_chunk", start, clock(),
                           ckpt=self._ckpt, offset=offset, nbytes=length)


def assert_forwards(make_inner, wrap=None) -> None:
    """Fail loudly if :class:`TracedDevice` (or the ``wrap`` class given in
    its place) drops part of the device protocol.

    ``make_inner()`` must build a device whose ``preferred_align`` differs
    from the base-class default of 1 (an unbuffered ``FileBackedSSD``), so
    a forgotten forward cannot pass by coincidence.
    """
    inner = make_inner()
    wrapped = (wrap or TracedDevice)(inner, SpanRecorder())
    try:
        if inner.preferred_align == 1:
            raise AssertionError("forwarding probe needs an aligned device")
        if wrapped.preferred_align != inner.preferred_align:
            raise AssertionError(
                f"TracedDevice dropped preferred_align "
                f"({wrapped.preferred_align} != {inner.preferred_align})"
            )
        if wrapped.capacity != inner.capacity:
            raise AssertionError("TracedDevice dropped capacity")
        registry = MetricsRegistry()
        wrapped.attach_metrics(registry)
        wrapped.write(0, bytes(inner.preferred_align))
        if M.DEVICE_OPS not in registry.names():
            raise AssertionError("TracedDevice dropped attach_metrics")
        if wrapped.stats.write_ops != 1:
            raise AssertionError("TracedDevice dropped stats")
    finally:
        wrapped.close()
    if not inner.closed:
        raise AssertionError("TracedDevice.close() did not close the inner device")


# ----------------------------------------------------------------------
# analysis

Interval = Tuple[float, float]


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint cover of ``intervals``."""
    merged: List[Interval] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def measure(intervals: Sequence[Interval]) -> float:
    return sum(hi - lo for lo, hi in intervals)


def intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two sorted disjoint interval lists."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def resolve_parents(spans: Sequence[Span], root_name: str) -> None:
    """Give parent-less non-root spans a parent among the ``root_name`` spans.

    Order of preference: the root with the same checkpoint id; the root
    holding the same slot while the span started; the latest-started root
    whose interval contains the span's start.  Spans recorded on worker
    threads (device writes, fences) carry no parent of their own, so this
    is how they join a request in the trace file.  Best effort with two
    requests in flight: self times are exact only per layer, not per
    request.
    """
    roots = sorted((s for s in spans if s.name == root_name),
                   key=lambda s: s.start)
    starts = [s.start for s in roots]
    by_ckpt = {s.ckpt: s for s in roots if s.ckpt is not None}
    for span in spans:
        if span.parent is not None or span.name == root_name:
            continue
        if span.ckpt is not None and span.ckpt in by_ckpt:
            span.parent = by_ckpt[span.ckpt].span_id
            continue
        slot = span.args.get("slot")
        # Only the last few roots begun before the span can still be open:
        # no workload keeps more than MAX_OPEN_ROOTS requests in flight.
        upto = bisect_right(starts, span.start)
        candidates = [r for r in roots[max(0, upto - MAX_OPEN_ROOTS):upto]
                      if span.start <= r.end]
        if slot is not None:
            same = [r for r in candidates if r.args.get("slot") == slot]
            candidates = same or candidates
        if candidates:
            span.parent = candidates[-1].span_id
            if span.ckpt is None:
                span.ckpt = candidates[-1].ckpt


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part of it its children cover."""
    children: Dict[int, List[Interval]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = intersect(union(children.get(span.span_id, ())),
                            [(span.start, span.end)])
        out[span.span_id] = span.duration - measure(covered)
    return out


def unattributed_frac(
    spans: Sequence[Span], root_name: str, layer_names: Sequence[str]
) -> float:
    """Share of in-flight time no visible layer accounts for.

    ``|roots \\ layers| / |roots|`` over interval unions: of the time at
    least one ``root_name`` span was open, the part during which no span
    named in ``layer_names`` was running on any thread.
    """
    roots = union((s.start, s.end) for s in spans if s.name == root_name)
    total = measure(roots)
    if total <= 0:
        return 0.0
    names = set(layer_names)
    layers = union((s.start, s.end) for s in spans if s.name in names)
    return 1.0 - measure(intersect(roots, layers)) / total


def busy_seconds(spans: Sequence[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def call_count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def write_chrome_trace(spans: Sequence[Span], path: str) -> None:
    """Dump ``spans`` as a Chrome ``trace_event`` document."""
    ordered = sorted(spans, key=lambda s: s.start)[:MAX_TRACE_EVENTS]
    if not ordered:
        events = []
    else:
        origin = ordered[0].start
        tids = {}
        selfs = self_times(ordered)
        events = []
        for span in ordered:
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = dict(span.args)
            args["id"] = span.span_id
            args["self_us"] = round(selfs[span.span_id] * 1e6, 3)
            if span.parent is not None:
                args["parent"] = span.parent
            if span.ckpt is not None:
                args["ckpt"] = span.ckpt
            events.append({
                "name": span.name, "cat": "bench", "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1, "tid": tid, "args": args,
            })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "spans_recorded": len(spans),
                   "spans_written": len(events)}, handle)
