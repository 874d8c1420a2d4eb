"""Lifecycle tracing: per-checkpoint spans as Chrome ``trace_event`` JSON.

Each checkpoint's life is a tree of spans following the pipeline of
Figure 5::

    checkpoint (request → ack)
    ├── slot_wait                    the Tw > N·f·t stall, if any
    ├── capture                      stage ③ (GPU→DRAM), and every chunk but
    │   │                            the last queued to storage as it goes
    │   ├── buffer_wait[chunk]       DRAM pool stall, if any
    │   └── capture_chunk[chunk]     multi-chunk plans only
    ├── persist                      stage ④: the last chunk queued, all reaped
    ├── commit_wait                  an earlier checkpoint still settling, if any
    └── commit                       header write + CAS + commit record

A one-chunk checkpoint's stage spans stand for its one chunk, and
``recovery`` spans cover the restart path.  Spans carry the engine
counter and step in their args so a trace of N concurrent checkpoints
can be re-assembled per ticket, and the root span's ``status`` arg
records the outcome: ``committed``, ``superseded``, ``aborted``
(local failure), or ``dangling`` (power loss left the ticket holding
its slot until recovery reclaims it).

The exporter emits the Chrome ``trace_event`` format (the
``{"traceEvents": [...]}`` object form) so a run can be dropped straight
into ``chrome://tracing`` or Perfetto: complete events (``"ph": "X"``)
with microsecond ``ts``/``dur``, real ``pid``/``tid``, and
``span_id``/``parent_id`` args for programmatic reconstruction.

A :class:`NullTracer` with the same interface makes the instrumentation
free when observability is off — every hook is a no-op method call.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Root-span outcome statuses (the ``status`` arg of ``checkpoint`` spans).
STATUS_COMMITTED = "committed"
STATUS_SUPERSEDED = "superseded"
STATUS_ABORTED = "aborted"
STATUS_DANGLING = "dangling"


class Span:
    """One timed operation; ``args`` may be amended until :meth:`to_event`.

    A span may begin on one thread and end on another (the checkpoint
    root span starts on the trainer thread and ends on the persist
    stage); the tracer's lock guards cross-thread arg updates.
    """

    __slots__ = (
        "span_id", "name", "cat", "parent_id", "tid",
        "start", "end", "args", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        cat: str,
        parent_id: Optional[int],
        start: float,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.cat = cat
        self.parent_id = parent_id
        self.tid = threading.get_ident()
        self.start = start
        self.end: Optional[float] = None
        self.args: Dict[str, object] = {}

    def set(self, **args: object) -> "Span":
        """Attach/overwrite args (e.g. ``status=...``); thread-safe."""
        with self._tracer._lock:  # noqa: SLF001
            self.args.update(args)
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_event(self, now: float) -> dict:
        """Chrome ``trace_event`` complete-event dict."""
        end = self.end if self.end is not None else now
        args = dict(self.args)
        args["span_id"] = self.span_id
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        if self.end is None:
            args["unfinished"] = True
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": round(self.start * 1e6, 3),
            "dur": round(max(end - self.start, 0.0) * 1e6, 3),
            "pid": os.getpid(),
            "tid": self.tid,
            "args": args,
        }


class Tracer:
    """Collects spans and instant events; exports Chrome trace JSON."""

    #: Real tracers record; the NullTracer reports False so hot paths can
    #: skip building arg dicts entirely.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._epoch = time.monotonic()
        self._spans: List[Span] = []
        self._instants: List[dict] = []

    # ------------------------------------------------------------------
    # recording

    def begin(
        self,
        name: str,
        cat: str = "pccheck",
        parent: Optional[Span] = None,
        **args: object,
    ) -> Span:
        """Open a span; finish it with :meth:`end` (any thread)."""
        now = time.monotonic() - self._epoch
        with self._lock:
            span = Span(
                self,
                self._next_id,
                name,
                cat,
                parent.span_id if parent is not None else None,
                now,
            )
            self._next_id += 1
            self._spans.append(span)
            if args:
                span.args.update(args)
            return span

    def end(self, span: Span, **args: object) -> None:
        """Close ``span``, optionally attaching final args."""
        now = time.monotonic() - self._epoch
        with self._lock:
            if args:
                span.args.update(args)
            if span.end is None:
                span.end = now

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "pccheck",
        parent: Optional[Span] = None,
        **args: object,
    ) -> Iterator[Span]:
        """Span as a context manager (single-thread convenience)."""
        opened = self.begin(name, cat=cat, parent=parent, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(self, name: str, cat: str = "pccheck", **args: object) -> None:
        """A zero-duration marker event."""
        now = time.monotonic() - self._epoch
        with self._lock:
            self._instants.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "i",
                    "ts": round(now * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "s": "t",
                    "args": dict(args),
                }
            )

    # ------------------------------------------------------------------
    # export

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """All recorded spans, optionally filtered by name."""
        with self._lock:
            spans = list(self._spans)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def to_chrome_trace(self) -> dict:
        """The ``{"traceEvents": [...]}`` object, chronologically sorted."""
        now = time.monotonic() - self._epoch
        with self._lock:
            events = [span.to_event(now) for span in self._spans]
            events.extend(dict(e) for e in self._instants)
        events.sort(key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent,
                          sort_keys=True)


class _NullSpan:
    """Inert span: accepts the full :class:`Span` surface, records nothing."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    args: Dict[str, object] = {}
    finished = True

    def set(self, **args: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer with the full :class:`Tracer` interface."""

    enabled = False

    def begin(self, name, cat="pccheck", parent=None, **args):  # noqa: D102
        return _NULL_SPAN

    def end(self, span, **args) -> None:  # noqa: D102
        return None

    @contextmanager
    def span(self, name, cat="pccheck", parent=None, **args):  # noqa: D102
        yield _NULL_SPAN

    def instant(self, name, cat="pccheck", **args) -> None:  # noqa: D102
        return None

    def spans(self, name=None):  # noqa: D102
        return []

    def to_chrome_trace(self) -> dict:  # noqa: D102
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def to_json(self, indent=None) -> str:  # noqa: D102
        return json.dumps(self.to_chrome_trace(), sort_keys=True)


#: Shared inert tracer: components default to this when tracing is off.
NULL_TRACER = NullTracer()
