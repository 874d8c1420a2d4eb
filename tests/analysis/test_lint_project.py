"""Whole-program analysis tests: PC009-PC011, incremental index,
baseline workflow, SARIF output, project-mode suppressions, and the
run_lint exit-code contract."""

import io
import json
import textwrap

import pytest

from repro.analysis.static.projectindex import ProjectIndex
from repro.analysis.static.runner import (
    lint_paths,
    load_index_cache,
    run_lint,
    save_index_cache,
)


def write_tree(root, files):
    for name, code in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
    return str(root)


def rules_fired(diags):
    return {d.rule_id for d in diags}


# ----------------------------------------------------------------------
# PC009: lock-order cycles


DEADLOCK = """
    import threading


    class Engine:
        def __init__(self, coord: "Coordinator"):
            self._commit_lock = threading.Lock()
            self._coord = coord

        def commit(self):
            with self._commit_lock:
                self._coord.arrive()

        def reclaim(self):
            with self._commit_lock:
                pass


    class Coordinator:
        def __init__(self, engine: Engine):
            self._round_lock = threading.Lock()
            self._engine = engine

        def arrive(self):
            with self._round_lock:
                pass

        def fail_round(self):
            with self._round_lock:
                self._engine.reclaim()
"""


class TestPC009LockOrderCycles:
    def test_cross_class_abba_cycle_detected(self, tmp_path):
        root = write_tree(tmp_path, {"deadlock.py": DEADLOCK})
        diags, _ = lint_paths([root], select={"PC009"})
        assert rules_fired(diags) == {"PC009"}
        message = diags[0].message
        # Both acquisition sites and the connecting call path are named.
        assert "Engine._commit_lock" in message
        assert "Coordinator._round_lock" in message
        assert "via" in message
        assert "deadlock.py" in message

    def test_cycle_reported_once_not_per_direction(self, tmp_path):
        root = write_tree(tmp_path, {"deadlock.py": DEADLOCK})
        diags, _ = lint_paths([root], select={"PC009"})
        assert len(diags) == 1

    def test_consistent_order_is_clean(self, tmp_path):
        code = """
            import threading


            class Engine:
                def __init__(self, coord: "Coordinator"):
                    self._commit_lock = threading.Lock()
                    self._coord = coord

                def commit(self):
                    with self._commit_lock:
                        self._coord.arrive()


            class Coordinator:
                def __init__(self):
                    self._round_lock = threading.Lock()

                def arrive(self):
                    with self._round_lock:
                        pass

                def settle(self):
                    with self._round_lock:
                        pass
        """
        root = write_tree(tmp_path, {"ordered.py": code})
        diags, _ = lint_paths([root], select={"PC009"})
        assert diags == []

    def test_direct_nested_abba_in_one_class(self, tmp_path):
        code = """
            import threading


            class Cache:
                def __init__(self):
                    self.lock_a = threading.Lock()
                    self.lock_b = threading.Lock()

                def promote(self):
                    with self.lock_a:
                        with self.lock_b:
                            pass

                def demote(self):
                    with self.lock_b:
                        with self.lock_a:
                            pass
        """
        root = write_tree(tmp_path, {"cache.py": code})
        diags, _ = lint_paths([root], select={"PC009"})
        assert len(diags) == 1
        assert "Cache.lock_a" in diags[0].message
        assert "Cache.lock_b" in diags[0].message

    def test_reentrant_same_lock_is_clean(self, tmp_path):
        code = """
            import threading


            class Engine:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """
        root = write_tree(tmp_path, {"reentrant.py": code})
        diags, _ = lint_paths([root], select={"PC009"})
        assert diags == []


# ----------------------------------------------------------------------
# PC010: interprocedural fence coverage


UNFENCED = """
    def encode_commit_record(meta):
        return bytes(meta)


    def write_record(device, layout, meta):
        device.write(layout.commit_offset, encode_commit_record(meta))


    def publish(device, layout, meta):
        write_record(device, layout, meta)
"""

CALLER_FENCED = """
    def encode_commit_record(meta):
        return bytes(meta)


    def write_record(device, layout, meta):
        device.write(layout.commit_offset, encode_commit_record(meta))


    def publish(device, layout, meta):
        write_record(device, layout, meta)
        device.persist(layout.commit_offset, 64)
"""


class TestPC010InterproceduralFences:
    def test_fence_elided_two_function_commit_path(self, tmp_path):
        root = write_tree(tmp_path, {"fence.py": UNFENCED})
        diags, _ = lint_paths([root], select={"PC010"})
        assert rules_fired(diags) == {"PC010"}
        # Anchored at the write, with the unfenced caller in the message.
        assert diags[0].line == 7
        assert "publish" in diags[0].message

    def test_fence_in_caller_is_clean(self, tmp_path):
        root = write_tree(tmp_path, {"fence.py": CALLER_FENCED})
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []

    def test_submit_reap_batch_counts_as_fence(self, tmp_path):
        # No batch API is known by name: ``reap`` covers the staged
        # commit writes because it always fences (the fixed point).
        code = """
            def encode_commit_record(meta):
                return bytes(meta)


            class Writer:
                def __init__(self, device):
                    self._device = device

                def submit(self, pieces):
                    return list(pieces)

                def reap(self, submission):
                    self._device.persist(0, 4096)


            def stage_commit(device, layout, meta):
                device.write(layout.commit_offset, encode_commit_record(meta))


            def flush_batch(device, layout, writer: Writer, pending):
                for meta in pending:
                    stage_commit(device, layout, meta)
                writer.reap(writer.submit(pending))
        """
        root = write_tree(tmp_path, {"batch.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []

    def test_striped_reap_fencing_through_helper_counts_as_fence(
        self, tmp_path
    ):
        # The same batch over a striped device: reap's covering fence is
        # a helper that fences each member — two levels of the fixed point.
        code = """
            def encode_commit_record(meta):
                return bytes(meta)


            class StripedWriter:
                def __init__(self, first, second):
                    self._first = first
                    self._second = second

                def submit(self, pieces):
                    return list(pieces)

                def reap(self, submission):
                    self._fence_members()

                def _fence_members(self):
                    self._first.persist(0, 4096)
                    self._second.persist(0, 4096)


            def stage_commit(device, layout, meta):
                device.write(layout.commit_offset, encode_commit_record(meta))


            def flush_stripes(device, layout, writer: StripedWriter, pending):
                for meta in pending:
                    stage_commit(device, layout, meta)
                writer.reap(writer.submit(pending))
        """
        root = write_tree(tmp_path, {"stripes.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []

    def test_reap_that_may_skip_its_fence_does_not_count(self, tmp_path):
        code = """
            def encode_commit_record(meta):
                return bytes(meta)


            class LazyWriter:
                def __init__(self, device):
                    self._device = device

                def reap(self, submission):
                    if submission:
                        self._device.persist(0, 4096)


            def publish(device, layout, writer: LazyWriter, meta):
                device.write(layout.commit_offset, encode_commit_record(meta))
                writer.reap([])
        """
        root = write_tree(tmp_path, {"lazy.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert rules_fired(diags) == {"PC010"}

    def test_branch_missing_fence_detected(self, tmp_path):
        code = """
            def encode_commit_record(meta):
                return bytes(meta)


            def publish(device, layout, meta, fast):
                device.write(layout.commit_offset, encode_commit_record(meta))
                if not fast:
                    device.persist(layout.commit_offset, 64)
        """
        root = write_tree(tmp_path, {"branch.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert rules_fired(diags) == {"PC010"}

    def test_fence_via_helper_fixed_point(self, tmp_path):
        code = """
            def encode_commit_record(meta):
                return bytes(meta)


            def barrier(device):
                device.persist(0, 64)


            def publish(device, layout, meta):
                device.write(layout.commit_offset, encode_commit_record(meta))
                barrier(device)
        """
        root = write_tree(tmp_path, {"helper.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []

    def test_raise_path_carries_no_obligation(self, tmp_path):
        code = """
            def encode_commit_record(meta):
                return bytes(meta)


            def publish(device, layout, meta):
                device.write(layout.commit_offset, encode_commit_record(meta))
                if device.failed:
                    raise RuntimeError("device lost")
                device.persist(layout.commit_offset, 64)
        """
        root = write_tree(tmp_path, {"raises.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []

    def test_cross_module_caller_fence(self, tmp_path):
        files = {
            "writerlib.py": """
                def encode_commit_record(meta):
                    return bytes(meta)


                def write_record(device, layout, meta):
                    device.write(
                        layout.commit_offset, encode_commit_record(meta)
                    )
            """,
            "publisher.py": """
                from writerlib import write_record


                def publish(device, layout, meta):
                    write_record(device, layout, meta)
                    device.persist(layout.commit_offset, 64)
            """,
        }
        root = write_tree(tmp_path, files)
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []


# ----------------------------------------------------------------------
# PC011: zero-copy view escapes


class TestPC011ViewEscapes:
    def test_view_stored_on_self_flagged(self, tmp_path):
        code = """
            class Stage:
                def capture(self):
                    buf = self._pool.acquire(4096)
                    staged = buf.view()
                    self._latest = staged
                    self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"store.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert rules_fired(diags) == {"PC011"}
        assert "stored on self" in diags[0].message

    def test_fresh_view_stored_on_self_flagged(self, tmp_path):
        # No intermediate variable: the view call feeds self directly.
        code = """
            class Stage:
                def capture(self):
                    buf = self._pool.acquire(4096)
                    self._latest = buf.view()
                    self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"store.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert rules_fired(diags) == {"PC011"}
        assert "stored on self" in diags[0].message

    def test_fresh_view_passed_to_thread_flagged(self, tmp_path):
        code = """
            import threading

            class Stage:
                def kickoff(self):
                    buf = self._pool.acquire(4096)
                    threading.Thread(target=drain, args=(buf.view(),)).start()
                    self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"spawn.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert rules_fired(diags) == {"PC011"}
        assert "passed to" in diags[0].message

    def test_view_returned_past_finally_release_flagged(self, tmp_path):
        code = """
            class Stage:
                def checkout(self):
                    buf = self._pool.acquire(4096)
                    try:
                        return buf.view()
                    finally:
                        self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"ret.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert rules_fired(diags) == {"PC011"}
        assert "returned" in diags[0].message

    def test_use_after_release_flagged(self, tmp_path):
        code = """
            class Stage:
                def persist(self, device):
                    buf = self._pool.acquire(4096)
                    staged = buf.view()
                    self._pool.release(buf)
                    device.write(0, staged)
        """
        root = write_tree(tmp_path, {"uar.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert rules_fired(diags) == {"PC011"}
        assert "after" in diags[0].message
        assert diags[0].line == 7

    def test_thread_capture_flagged(self, tmp_path):
        code = """
            import threading


            class Stage:
                def spawn(self):
                    buf = self._pool.acquire(4096)
                    staged = buf.view()
                    threading.Thread(target=self._work, args=(staged,)).start()
                    self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"spawn.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert rules_fired(diags) == {"PC011"}

    def test_use_before_release_is_clean(self, tmp_path):
        code = """
            class Stage:
                def persist(self, device):
                    buf = self._pool.acquire(4096)
                    staged = buf.view()
                    device.write(0, staged)
                    self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"clean.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert diags == []

    def test_loop_rebinding_is_clean(self, tmp_path):
        # The orchestrator's pipeline shape: the view is rebound from a
        # fresh buffer each iteration before any use, so the release at
        # the bottom of the loop never precedes a read of a stale view.
        code = """
            class Stage:
                def drain(self, hand_off, device):
                    while True:
                        buf = hand_off.get()
                        if buf is None:
                            break
                        staged = buf.view()
                        try:
                            device.write(0, staged)
                        finally:
                            self._pool.release(buf)
        """
        root = write_tree(tmp_path, {"loop.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert diags == []

    def test_ownership_transfer_without_release_is_clean(self, tmp_path):
        code = """
            class Pool:
                def lease(self):
                    buf = self._pool.acquire(4096)
                    return buf.view()
        """
        root = write_tree(tmp_path, {"lease.py": code})
        diags, _ = lint_paths([root], select={"PC011"})
        assert diags == []


# ----------------------------------------------------------------------
# PC008 (index-backed half): slice-assignment into a bytearray


STAGING = """
    class PinnedBuffer:
        def __init__(self, size):
            self.data = bytearray(size)
            self.used = 0

        def fill(self, view):
            self.data[: len(view)] = view{suffix}
            self.used = len(view)
"""


class TestPC008BytearraySliceAssign:
    STORAGE = "src/repro/storage/dram.py"

    def lint(self, tmp_path, code, path=STORAGE, **fmt):
        root = write_tree(tmp_path, {path: code.format(**fmt) if fmt else code})
        diags, _ = lint_paths([root], select={"PC008"})
        return diags

    def test_attribute_initialised_from_bytearray_flagged(self, tmp_path):
        diags = self.lint(tmp_path, STAGING, suffix="")
        assert rules_fired(diags) == {"PC008"}
        assert len(diags) == 1
        assert "self.data" in diags[0].message
        assert "copy_into" in diags[0].message

    def test_attribute_regrown_in_another_method_flagged(self, tmp_path):
        diags = self.lint(tmp_path, """
            class Sender:
                def __init__(self):
                    self._staging = None

                def grow(self, n):
                    self._staging = bytearray(n)

                def checkpoint(self, view):
                    self._staging[: len(view)] = view
        """, path="src/repro/baselines/sender.py")
        assert rules_fired(diags) == {"PC008"}

    def test_local_bytearray_flagged_on_the_hot_path(self, tmp_path):
        diags = self.lint(tmp_path, """
            def gather(pieces, total):
                out = bytearray(total)
                offset = 0
                for piece in pieces:
                    out[offset : offset + len(piece)] = piece
                    offset += len(piece)
                return out
        """, path="src/repro/core/recovery.py")
        assert rules_fired(diags) == {"PC008"}

    def test_bytearray_to_bytearray_and_copy_into_are_clean(self, tmp_path):
        diags = self.lint(tmp_path, """
            from repro.storage.device import copy_into


            class Device:
                def __init__(self, capacity):
                    self._visible = bytearray(capacity)
                    self._durable = bytearray(capacity)

                def write(self, offset, view):
                    copy_into(self._visible, offset, view)

                def persist(self, lo, hi):
                    self._durable[lo:hi] = self._visible[lo:hi]

                def reset(self):
                    self._visible[:] = bytearray(len(self._visible))

                def poke(self, offset, value):
                    self._visible[offset] = value
        """)
        assert diags == []

    def test_unknown_targets_and_other_modules_are_clean(self, tmp_path):
        # A parameter's type is unknown to the index: no guessing.
        diags = self.lint(tmp_path, """
            def fill(dest, view):
                dest[: len(view)] = view
        """)
        assert diags == []
        diags = self.lint(tmp_path, STAGING, path="src/repro/obs/driver.py",
                          suffix="")
        assert diags == []

    def test_suppression_and_single_file_mode(self, tmp_path):
        diags = self.lint(tmp_path, STAGING,
                          suffix="  # pclint: disable=PC008")
        assert diags == []
        # The target's type comes from the project index, so the
        # per-file mode cannot (and does not) report this pattern.
        from repro.analysis.static.runner import lint_source

        source = textwrap.dedent(STAGING.format(suffix=""))
        assert lint_source(source, path=self.STORAGE,
                           select={"PC008"}) == []

    def test_syntactic_half_still_runs_in_project_mode(self, tmp_path):
        diags = self.lint(tmp_path, """
            def persist(self, offset, payload):
                self._device.write(offset, bytes(payload))
        """, path="src/repro/core/writer.py")
        assert rules_fired(diags) == {"PC008"}
        assert "bytes(payload)" in diags[0].message


# ----------------------------------------------------------------------
# incremental index


class TestIncrementalIndex:
    def test_second_run_parses_zero_files(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"a.py": "x = 1\n", "b.py": "y = 2\n", "c.py": "z = 3\n"},
        )
        index = ProjectIndex()
        lint_paths([root], index=index)
        assert index.parse_count == 3
        lint_paths([root], index=index)
        assert index.parse_count == 3  # warm: nothing re-parsed

    def test_editing_one_file_reparses_only_it(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"a.py": "x = 1\n", "b.py": "y = 2\n", "c.py": "z = 3\n"},
        )
        index = ProjectIndex()
        lint_paths([root], index=index)
        (tmp_path / "b.py").write_text("y = 22\n")
        lint_paths([root], index=index)
        assert index.parse_count == 4  # 3 cold + exactly 1 re-parse

    def test_cache_file_round_trip(self, tmp_path):
        root = write_tree(
            tmp_path / "proj", {"a.py": "x = 1\n", "b.py": "y = 2\n"}
        )
        cache = tmp_path / "index.pkl"
        index = ProjectIndex()
        cold, _ = lint_paths([root], index=index)
        save_index_cache(str(cache), index)
        thawed = load_index_cache(str(cache))
        assert thawed.parse_count == 0
        warm, _ = lint_paths([root], index=thawed)
        assert thawed.parse_count == 0  # warm run parsed nothing
        assert warm == cold

    def test_corrupt_cache_falls_back_to_fresh(self, tmp_path):
        cache = tmp_path / "index.pkl"
        cache.write_bytes(b"not a pickle")
        index = load_index_cache(str(cache))
        assert isinstance(index, ProjectIndex)
        assert index.records == {}

    def test_vanished_file_pruned(self, tmp_path):
        root = write_tree(
            tmp_path, {"a.py": "x = 1\n", "gone.py": "import time\n"}
        )
        index = ProjectIndex()
        lint_paths([root], index=index)
        assert len(index.records) == 2
        (tmp_path / "gone.py").unlink()
        lint_paths([root], index=index)
        assert len(index.records) == 1


# ----------------------------------------------------------------------
# baseline workflow


class TestBaseline:
    def test_baseline_subtracts_known_findings(self, tmp_path):
        root = write_tree(tmp_path / "proj", {"fence.py": UNFENCED})
        baseline = tmp_path / "baseline.json"
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [root], write_baseline=str(baseline), stream=out, error_stream=err
        )
        assert code == 0
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [root], baseline=str(baseline), stream=out, error_stream=err
        )
        assert code == 0
        assert "1 known finding(s) subtracted" in err.getvalue()

    def test_new_finding_fails_despite_baseline(self, tmp_path):
        root = write_tree(tmp_path / "proj", {"fence.py": UNFENCED})
        baseline = tmp_path / "baseline.json"
        run_lint(
            [root],
            write_baseline=str(baseline),
            stream=io.StringIO(),
            error_stream=io.StringIO(),
        )
        # Introduce a deliberately-new finding in another file.
        (tmp_path / "proj" / "extra.py").write_text(
            textwrap.dedent(
                """
                import time


                def retry():
                    time.sleep(0.25)
                """
            )
        )
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [root],
            report_format="json",
            baseline=str(baseline),
            stream=out,
            error_stream=err,
        )
        assert code == 1
        payload = json.loads(out.getvalue())
        assert [f["rule"] for f in payload["findings"]] == ["PC006"]

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        root = write_tree(tmp_path / "proj", {"a.py": "x = 1\n"})
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [root],
            baseline=str(tmp_path / "missing.json"),
            stream=out,
            error_stream=err,
        )
        assert code == 2
        assert "cannot load baseline" in err.getvalue()


# ----------------------------------------------------------------------
# SARIF reporter


class TestSarif:
    def test_sarif_output_is_valid_and_complete(self, tmp_path):
        root = write_tree(tmp_path, {"fence.py": UNFENCED})
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [root], report_format="sarif", stream=out, error_stream=err
        )
        assert code == 1
        payload = json.loads(out.getvalue())
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "pccheck-lint"
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"PC009", "PC010", "PC011"} <= declared
        result = run["results"][0]
        assert result["ruleId"] == "PC010"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("fence.py")
        assert location["region"]["startLine"] == 7


# ----------------------------------------------------------------------
# project-mode suppressions


class TestProjectSuppressions:
    def test_project_finding_suppressed_at_anchor_line(self, tmp_path):
        code = UNFENCED.replace(
            "device.write(layout.commit_offset, encode_commit_record(meta))",
            "device.write(layout.commit_offset, encode_commit_record(meta))"
            "  # pclint: disable=PC010",
        )
        root = write_tree(tmp_path, {"fence.py": code})
        diags, _ = lint_paths([root], select={"PC010"})
        assert diags == []

    def test_multi_rule_directive_silences_both(self, tmp_path):
        code = """
            import threading, time


            class Cache:
                def __init__(self):
                    self.lock_a = threading.Lock()
                    self.lock_b = threading.Lock()

                def promote(self):
                    with self.lock_a:
                        # justified: see docs/STATIC_ANALYSIS.md
                        # pclint: disable=PC001,PC009
                        with self.lock_b:
                            pass

                def demote(self):
                    with self.lock_b:
                        with self.lock_a:  # pclint: disable=PC001,PC009
                            pass
        """
        root = write_tree(tmp_path, {"cache.py": code})
        diags, _ = lint_paths([root], select={"PC001", "PC009"})
        assert diags == []
        # Without the directives both rules fire.
        bare = code.replace("  # pclint: disable=PC001,PC009", "").replace(
            "# pclint: disable=PC001,PC009", ""
        )
        root2 = write_tree(tmp_path / "bare", {"cache.py": bare})
        diags, _ = lint_paths([root2], select={"PC001", "PC009"})
        assert rules_fired(diags) == {"PC001", "PC009"}

    def test_unused_suppression_reported(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"a.py": "x = 1  # pclint: disable=PC006\n"},
        )
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [root],
            warn_unused_suppressions=True,
            stream=out,
            error_stream=err,
        )
        assert code == 0
        assert "unused suppression" in err.getvalue()
        assert "PC006" in err.getvalue()

    def test_used_suppression_not_reported_as_stale(self, tmp_path):
        code = """
            import time


            def retry():
                time.sleep(0.25)  # pclint: disable=PC006
        """
        root = write_tree(tmp_path, {"a.py": code})
        out, err = io.StringIO(), io.StringIO()
        assert (
            run_lint(
                [root],
                warn_unused_suppressions=True,
                stream=out,
                error_stream=err,
            )
            == 0
        )
        assert "unused suppression" not in err.getvalue()


# ----------------------------------------------------------------------
# run_lint contract (exit codes, streams)


class TestRunLintContract:
    def test_unknown_rule_id_exit_2_on_error_stream(self, tmp_path):
        root = write_tree(tmp_path, {"a.py": "x = 1\n"})
        out, err = io.StringIO(), io.StringIO()
        code = run_lint([root], select="PC999", stream=out, error_stream=err)
        assert code == 2
        assert "unknown rule id" in err.getvalue()
        assert out.getvalue() == ""  # stdout stays clean on usage errors

    def test_missing_path_exit_2_on_error_stream(self, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(
            [str(tmp_path / "nope")], stream=out, error_stream=err
        )
        assert code == 2
        assert "no such path" in err.getvalue()
        assert out.getvalue() == ""

    def test_clean_tree_exit_0(self, tmp_path):
        root = write_tree(tmp_path, {"a.py": "x = 1\n"})
        out, err = io.StringIO(), io.StringIO()
        assert run_lint([root], stream=out, error_stream=err) == 0

    def test_findings_exit_1(self, tmp_path):
        root = write_tree(tmp_path, {"fence.py": UNFENCED})
        out, err = io.StringIO(), io.StringIO()
        assert run_lint([root], stream=out, error_stream=err) == 1

    def test_json_stdout_parseable_with_baseline_notes_on_stderr(
        self, tmp_path
    ):
        root = write_tree(tmp_path / "proj", {"fence.py": UNFENCED})
        baseline = tmp_path / "baseline.json"
        run_lint(
            [root],
            write_baseline=str(baseline),
            stream=io.StringIO(),
            error_stream=io.StringIO(),
        )
        out, err = io.StringIO(), io.StringIO()
        run_lint(
            [root],
            report_format="json",
            baseline=str(baseline),
            stream=out,
            error_stream=err,
        )
        json.loads(out.getvalue())  # must not raise
        assert "baseline" in err.getvalue()

    def test_help_documents_exit_codes(self, capsys):
        from repro.analysis.static.runner import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        help_text = capsys.readouterr().out
        assert "exit codes" in help_text
        assert "2  usage error" in help_text

    def test_list_rules_includes_project_rules(self, capsys):
        from repro.analysis.static.runner import main

        assert main(["--list-rules"]) == 0
        listed = capsys.readouterr().out
        for rule_id in ("PC001", "PC009", "PC010", "PC011"):
            assert rule_id in listed
