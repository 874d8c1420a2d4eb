"""Tracer unit tests plus span structure over a real pipelined run."""

import json

import pytest

from repro import open_checkpointer
from repro.obs import (
    NULL_TRACER,
    STATUS_COMMITTED,
    STATUS_SUPERSEDED,
    Tracer,
)
from repro.obs.driver import run_demo_workload

REQUIRED_EVENT_KEYS = {"name", "cat", "ph", "ts", "pid", "tid", "args"}


def validate_chrome_trace(doc):
    """Assert ``doc`` is a loadable Chrome ``trace_event`` document."""
    json.loads(json.dumps(doc))  # everything must be JSON-serializable
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    for event in doc["traceEvents"]:
        assert REQUIRED_EVENT_KEYS <= set(event), event
        assert event["ph"] in ("X", "i")
        assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert "span_id" in event["args"]


class TestTracer:
    def test_span_lifecycle_and_args(self):
        tracer = Tracer()
        root = tracer.begin("checkpoint", step=3)
        child = tracer.begin("commit", parent=root, slot=1)
        tracer.end(child)
        tracer.end(root, status=STATUS_COMMITTED)
        assert root.finished and child.finished
        assert child.parent_id == root.span_id
        events = tracer.to_chrome_trace()["traceEvents"]
        by_name = {event["name"]: event for event in events}
        assert by_name["commit"]["args"]["parent_id"] == root.span_id
        assert by_name["checkpoint"]["args"]["status"] == STATUS_COMMITTED

    def test_context_manager_ends_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("persist"):
                raise RuntimeError("boom")
        (span,) = tracer.spans("persist")
        assert span.finished

    def test_unfinished_span_marked(self):
        tracer = Tracer()
        tracer.begin("capture")
        (event,) = tracer.to_chrome_trace()["traceEvents"]
        assert event["args"]["unfinished"] is True

    def test_events_sorted_by_start_time(self):
        tracer = Tracer()
        for name in ("a", "b", "c"):
            tracer.end(tracer.begin(name))
        times = [e["ts"] for e in tracer.to_chrome_trace()["traceEvents"]]
        assert times == sorted(times)

    def test_instant_events(self):
        tracer = Tracer()
        tracer.instant("checkpoint_request", step=9)
        (event,) = tracer.to_chrome_trace()["traceEvents"]
        assert event["ph"] == "i"
        assert event["args"]["step"] == 9


class TestNullTracer:
    def test_is_inert_and_reusable(self):
        span = NULL_TRACER.begin("checkpoint", step=1)
        assert NULL_TRACER.begin("other") is span  # one shared null span
        span.set(status="whatever")  # must not raise
        NULL_TRACER.end(span)
        with NULL_TRACER.span("capture"):
            pass
        NULL_TRACER.instant("x")
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.to_chrome_trace()["traceEvents"] == []
        assert not NULL_TRACER.enabled


class TestPipelineSpans:
    """Span structure of a real 4-concurrent-checkpoint run."""

    @pytest.fixture(scope="class")
    def run(self):
        return run_demo_workload(checkpoints=6, concurrent=4,
                                 payload_bytes=32 * 1024, seed=3)

    def test_chrome_trace_schema(self, run):
        validate_chrome_trace(run.tracer.to_chrome_trace())

    def test_every_stage_parents_to_its_checkpoint(self, run):
        roots = {span.span_id: span for span in run.tracer.spans("checkpoint")}
        assert len(roots) == run.checkpoints
        for name in ("capture", "persist", "commit"):
            stage_spans = run.tracer.spans(name)
            assert stage_spans, f"no {name} spans recorded"
            for span in stage_spans:
                assert span.parent_id in roots, name

    def test_chunk_spans_parent_to_their_stage(self):
        """A multi-chunk plan: one ``capture_chunk`` span per chunk under
        its checkpoint's ``capture`` stage, which also holds any
        ``buffer_wait`` stall (one staging buffer for two checkpoints in
        flight); no chunk has a persist span of its own."""
        num_chunks = 4
        payload = bytes(range(256)) * 16
        with open_checkpointer(
            capacity_bytes=len(payload), chunk_size=len(payload) // num_chunks,
            num_chunks=1, num_concurrent=2, backend="pmem",
            observability="full",
        ) as checkpointer:
            handles = [checkpointer.checkpoint_async(payload, step=step)
                       for step in (1, 2)]
            checkpointer.checkpoint(payload, step=3)
            assert all(handle.wait(10.0).committed for handle in handles)
            tracer = checkpointer.engine.tracer
        captures = tracer.spans("capture")
        assert len(captures) == 3
        for capture in captures:
            assert capture.args["chunks"] == num_chunks
            chunks = [span for span in tracer.spans("capture_chunk")
                      if span.parent_id == capture.span_id]
            assert [span.args["chunk"] for span in chunks] == list(
                range(num_chunks)
            )
        assert len(tracer.spans("capture_chunk")) == 3 * num_chunks
        capture_ids = {span.span_id for span in captures}
        for span in tracer.spans("buffer_wait"):
            assert span.parent_id in capture_ids
        assert tracer.spans("persist_chunk") == []

    def test_capture_precedes_persist_completion(self, run):
        """Per checkpoint: capture starts before its persist stage ends,
        and the commit happens after the capture began."""
        by_parent = {}
        for name in ("capture", "persist", "commit"):
            for span in run.tracer.spans(name):
                by_parent.setdefault(span.parent_id, {})[name] = span
        assert by_parent
        for stages in by_parent.values():
            assert set(stages) == {"capture", "persist", "commit"}
            assert stages["capture"].start <= stages["persist"].end
            assert stages["commit"].start >= stages["capture"].start
            assert stages["commit"].start >= stages["persist"].start

    def test_roots_resolve_to_terminal_status(self, run):
        statuses = [
            span.args.get("status") for span in run.tracer.spans("checkpoint")
        ]
        assert all(
            status in (STATUS_COMMITTED, STATUS_SUPERSEDED)
            for status in statuses
        )
        assert statuses.count(STATUS_COMMITTED) == run.committed
