"""Per-rule tests for pccheck-lint (PC001-PC008) and suppressions."""

import textwrap

from repro.analysis.static.runner import lint_source


def lint(code, select=None):
    return lint_source(textwrap.dedent(code), path="fixture.py",
                       select=select)


def rule_ids(diags):
    return [d.rule_id for d in diags]


class TestPC001BlockingUnderLock:
    def test_sleep_under_lock_flagged(self):
        diags = lint(
            """
            import threading, time

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self):
                    with self._lock:
                        time.sleep(0.5)
            """,
            select={"PC001"},
        )
        assert rule_ids(diags) == ["PC001"]
        assert "sleep" in diags[0].message
        assert "self._lock" in diags[0].message

    def test_persist_under_lock_flagged(self):
        diags = lint(
            """
            def commit(self):
                with self._commit_lock:
                    self.device.persist(0, 64)
            """,
            select={"PC001"},
        )
        assert rule_ids(diags) == ["PC001"]

    def test_nested_lock_acquisition_flagged(self):
        diags = lint(
            """
            def transfer(self, other):
                with self._lock:
                    with other._lock:
                        self.x = other.x
            """,
            select={"PC001"},
        )
        assert any("ordering hazard" in d.message for d in diags)

    def test_sleep_outside_lock_clean(self):
        diags = lint(
            """
            import time

            def wait_for_slot(self):
                with self._lock:
                    n = self.count
                time.sleep(n)
            """,
            select={"PC001"},
        )
        assert diags == []

    def test_condition_wait_is_not_blocking(self):
        # Condition.wait releases the lock: the freelist pattern is legal.
        diags = lint(
            """
            def enqueue(self, cell):
                with cell.lock:
                    while cell.turn != 0:
                        cell.nonfull.wait()
            """,
            select={"PC001"},
        )
        assert diags == []


class TestPC002UnguardedMutation:
    POSITIVE = """
        import threading

        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def inc(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                self.count = 0
    """

    def test_mixed_guarded_unguarded_write_flagged(self):
        diags = lint(self.POSITIVE, select={"PC002"})
        assert rule_ids(diags) == ["PC002"]
        assert "self.count" in diags[0].message

    def test_all_writes_guarded_clean(self):
        diags = lint(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def inc(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    with self._lock:
                        self.count = 0
            """,
            select={"PC002"},
        )
        assert diags == []

    def test_init_writes_exempt(self):
        diags = lint(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def inc(self):
                    with self._lock:
                        self.count += 1
            """,
            select={"PC002"},
        )
        assert diags == []

    def test_class_without_lock_ignored(self):
        diags = lint(
            """
            class Plain:
                def set(self, v):
                    self.value = v

                def clear(self):
                    self.value = None
            """,
            select={"PC002"},
        )
        assert diags == []

    def test_subscript_store_counts_as_write(self):
        diags = lint(
            """
            import threading

            class Buffers:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._steps = [0, 0]

                def set_locked(self, i, v):
                    with self._lock:
                        self._steps[i] = v

                def set_racy(self, i, v):
                    self._steps[i] = v
            """,
            select={"PC002"},
        )
        assert rule_ids(diags) == ["PC002"]


class TestPC003TicketResolution:
    def test_never_resolved_flagged(self):
        diags = lint(
            """
            def leak(engine):
                ticket = engine.begin(step=1)
                ticket.write_chunk(b"x")
            """,
            select={"PC003"},
        )
        assert rule_ids(diags) == ["PC003"]
        assert "never committed" in diags[0].message

    def test_conditional_commit_without_else_flagged(self):
        diags = lint(
            """
            def maybe(engine, flag):
                ticket = engine.begin()
                if flag:
                    ticket.commit()
            """,
            select={"PC003"},
        )
        assert rule_ids(diags) == ["PC003"]
        assert "every normal path" in diags[0].message

    def test_commit_and_abort_branches_clean(self):
        diags = lint(
            """
            def both(engine, flag):
                ticket = engine.begin()
                if flag:
                    ticket.commit()
                else:
                    ticket.abort()
            """,
            select={"PC003"},
        )
        assert diags == []

    def test_try_finally_abort_clean(self):
        diags = lint(
            """
            def safe(engine, work):
                ticket = engine.begin()
                try:
                    work(b"payload")
                finally:
                    ticket.abort()
            """,
            select={"PC003"},
        )
        assert diags == []

    def test_escaping_ticket_clean(self):
        diags = lint(
            """
            def handoff(engine, executor):
                ticket = engine.begin()
                executor.submit(persist_stage, ticket)

            def stash(engine, self):
                ticket = engine.begin()
                self.pending = ticket

            def give_back(engine):
                ticket = engine.begin()
                return ticket
            """,
            select={"PC003"},
        )
        assert diags == []

    def test_store_style_commit_by_argument_clean(self):
        # gemini-style: index = store.begin(); ...; store.commit(index)
        diags = lint(
            """
            def transfer(store, payload):
                index = store.begin(1)
                store.receive(index, 0, payload)
                store.commit(index)
            """,
            select={"PC003"},
        )
        assert diags == []

    def test_exception_exit_path_exempt(self):
        # The engine deliberately leaves the ticket dangling on crash.
        diags = lint(
            """
            def checkpoint(self, payload):
                ticket = self.begin()
                try:
                    ticket.write_chunk(payload)
                except BaseException:
                    raise
                return ticket.commit()
            """,
            select={"PC003"},
        )
        assert diags == []


class TestPC004FenceDiscipline:
    def test_unfenced_commit_write_flagged(self):
        diags = lint(
            """
            def publish(layout, meta):
                layout.device.write(
                    layout.commit_offset, encode_commit_record(meta)
                )
            """,
            select={"PC004"},
        )
        assert rule_ids(diags) == ["PC004"]
        assert "not followed by a fence" in diags[0].message

    def test_slot_write_unfenced_before_commit_flagged(self):
        diags = lint(
            """
            def publish(layout, meta, data):
                layout.device.write(layout.slot_offset(3), data)
                layout.device.write(
                    layout.commit_offset, encode_commit_record(meta)
                )
                layout.device.persist(layout.commit_offset, 64)
            """,
            select={"PC004"},
        )
        assert any("not preceded by a fence" in d.message for d in diags)

    def test_properly_fenced_sequence_clean(self):
        diags = lint(
            """
            def publish(layout, meta, data):
                layout.device.write(layout.slot_offset(3), data)
                layout.device.persist(layout.slot_offset(3), len(data))
                layout.device.write(
                    layout.commit_offset, encode_commit_record(meta)
                )
                layout.device.persist(layout.commit_offset, 64)
            """,
            select={"PC004"},
        )
        assert diags == []

    def test_ordinary_writes_ignored(self):
        diags = lint(
            """
            def log(handle, data):
                handle.write(data)
            """,
            select={"PC004"},
        )
        assert diags == []


class TestPC005SwallowedErrors:
    def test_bare_except_flagged(self):
        diags = lint(
            """
            def run(engine, payload):
                try:
                    engine.checkpoint(payload)
                except:
                    pass
            """,
            select={"PC005"},
        )
        assert rule_ids(diags) == ["PC005"]
        assert "bare" in diags[0].message

    def test_broad_except_pass_flagged(self):
        diags = lint(
            """
            def run(engine, payload):
                try:
                    engine.checkpoint(payload)
                except Exception:
                    pass
            """,
            select={"PC005"},
        )
        assert rule_ids(diags) == ["PC005"]

    def test_broad_except_reraise_clean(self):
        diags = lint(
            """
            def run(engine, payload):
                try:
                    engine.checkpoint(payload)
                except BaseException:
                    raise
            """,
            select={"PC005"},
        )
        assert diags == []

    def test_broad_except_using_error_clean(self):
        diags = lint(
            """
            def run(engine, payload, errors):
                try:
                    engine.checkpoint(payload)
                except BaseException as exc:
                    errors.append(exc)
            """,
            select={"PC005"},
        )
        assert diags == []

    def test_narrow_except_clean(self):
        diags = lint(
            """
            def run(engine, payload):
                try:
                    engine.checkpoint(payload)
                except ValueError:
                    pass
            """,
            select={"PC005"},
        )
        assert diags == []


class TestPC006MagicBackoff:
    def test_literal_sleep_flagged(self):
        diags = lint(
            """
            import time

            def poll():
                time.sleep(0.0001)
            """,
            select={"PC006"},
        )
        assert rule_ids(diags) == ["PC006"]
        assert "0.0001" in diags[0].message

    def test_named_constant_clean(self):
        diags = lint(
            """
            import time

            POLL_INTERVAL_SECONDS = 0.0001

            def poll():
                time.sleep(POLL_INTERVAL_SECONDS)
            """,
            select={"PC006"},
        )
        assert diags == []

    def test_sleep_zero_yield_clean(self):
        diags = lint(
            """
            import time

            def yield_thread():
                time.sleep(0)
            """,
            select={"PC006"},
        )
        assert diags == []

    def test_computed_interval_clean(self):
        diags = lint(
            """
            import time

            def throttle(nbytes, bandwidth):
                time.sleep(nbytes / bandwidth)
            """,
            select={"PC006"},
        )
        assert diags == []


class TestPC007HandRolledTelemetry:
    CORE_PATH = "src/repro/core/fixture.py"

    def lint_core(self, code, path=CORE_PATH):
        return lint_source(textwrap.dedent(code), path=path,
                           select={"PC007"})

    def test_wall_clock_in_core_flagged(self):
        diags = self.lint_core(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids(diags) == ["PC007"]
        assert "monotonic" in diags[0].message

    def test_stall_accumulator_in_core_flagged(self):
        diags = self.lint_core(
            """
            class Stats:
                def record(self, waited):
                    self.slot_wait_seconds += waited
            """
        )
        assert rule_ids(diags) == ["PC007"]
        assert "MetricsRegistry" in diags[0].message

    def test_monotonic_in_core_clean(self):
        diags = self.lint_core(
            """
            import time

            def stamp():
                return time.monotonic()
            """
        )
        assert diags == []

    def test_registry_inc_in_core_clean(self):
        diags = self.lint_core(
            """
            def record(self, waited):
                self._metrics.inc("pccheck_slot_wait_seconds_total", waited)
            """
        )
        assert diags == []

    def test_outside_core_not_in_scope(self):
        diags = self.lint_core(
            """
            import time

            def stamp(self):
                self.elapsed_seconds += time.time()
            """,
            path="src/repro/sim/runner_fixture.py",
        )
        assert diags == []


class TestPC008PayloadCopy:
    WRITER_PATH = "src/repro/core/writer.py"

    def lint_hot(self, code, path=WRITER_PATH):
        return lint_source(textwrap.dedent(code), path=path,
                           select={"PC008"})

    def test_bytes_cast_of_payload_flagged(self):
        diags = self.lint_hot(
            """
            def persist(self, offset, payload):
                self._device.write(offset, bytes(payload))
            """
        )
        assert rule_ids(diags) == ["PC008"]
        assert "bytes(payload)" in diags[0].message

    def test_bytearray_cast_of_snapshot_flagged(self):
        diags = self.lint_hot(
            """
            def stage(self, snapshot):
                return bytearray(snapshot)
            """
        )
        assert rule_ids(diags) == ["PC008"]

    def test_payload_slice_flagged(self):
        diags = self.lint_hot(
            """
            def share(self, payload, lo, hi):
                self._device.write(lo, payload[lo:hi])
            """
        )
        assert rule_ids(diags) == ["PC008"]
        assert "memoryview" in diags[0].message

    def test_attribute_chunk_slice_flagged(self):
        diags = self.lint_hot(
            """
            def capture(self, offset, length):
                return self._data.chunk[offset : offset + length]
            """
        )
        assert rule_ids(diags) == ["PC008"]

    def test_view_slicing_clean(self):
        diags = self.lint_hot(
            """
            def share(self, view, lo, hi):
                self._device.write(lo, view[lo:hi])
            """
        )
        assert diags == []

    def test_index_subscript_clean(self):
        diags = self.lint_hot(
            """
            def first(self, payload):
                return payload[0]
            """
        )
        assert diags == []

    def test_outside_hot_modules_clean(self):
        diags = self.lint_hot(
            """
            def report(self, payload):
                return bytes(payload)
            """,
            path="src/repro/core/inspect.py",
        )
        assert diags == []

    RECOVERY_PATH = "src/repro/core/recovery.py"

    def test_restore_path_is_hot(self):
        diags = self.lint_hot(
            """
            def recover(self, payload):
                return bytes(payload)
            """,
            path=self.RECOVERY_PATH,
        )
        assert rule_ids(diags) == ["PC008"]

    def test_join_of_read_chunks_flagged(self):
        diags = self.lint_hot(
            """
            def read_all(self, device, spans):
                chunks = [device.read(o, n) for o, n in spans]
                return b"".join(chunks)
            """,
            path=self.RECOVERY_PATH,
        )
        assert rule_ids(diags) == ["PC008"]
        assert "readinto" in diags[0].message

    def test_join_over_a_payload_generator_flagged(self):
        diags = self.lint_hot(
            """
            def frame(self, header, payload):
                return b"".join((header, payload))
            """
        )
        assert rule_ids(diags) == ["PC008"]

    def test_join_of_non_payload_pieces_clean(self):
        diags = self.lint_hot(
            """
            def record(self, magic, fields):
                return b"".join([magic, *fields]) + ", ".join(self.names)
            """,
            path=self.RECOVERY_PATH,
        )
        assert diags == []

    def test_outside_core_clean(self):
        diags = self.lint_hot(
            """
            def send(self, payload):
                return bytes(payload)
            """,
            path="src/repro/baselines/writer.py",
        )
        assert diags == []

    def test_suppression_honored(self):
        diags = self.lint_hot(
            """
            def durable_copy(self, payload):
                return bytes(payload)  # pclint: disable=PC008
            """
        )
        assert diags == []


class TestSuppressions:
    def test_inline_disable_specific_rule(self):
        diags = lint(
            """
            import time

            def poll():
                time.sleep(0.0001)  # pclint: disable=PC006
            """
        )
        assert diags == []

    def test_standalone_comment_covers_next_line(self):
        diags = lint(
            """
            import time

            def poll():
                # pclint: disable=PC006
                time.sleep(0.0001)
            """
        )
        assert diags == []

    def test_disable_all_rules_on_line(self):
        diags = lint(
            """
            import time

            def poll():
                time.sleep(0.0001)  # pclint: disable
            """
        )
        assert diags == []

    def test_disable_other_rule_does_not_hide(self):
        diags = lint(
            """
            import time

            def poll():
                time.sleep(0.0001)  # pclint: disable=PC001
            """
        )
        assert rule_ids(diags) == ["PC006"]

    def test_skip_file(self):
        diags = lint(
            """
            # pclint: skip-file
            import time

            def poll():
                time.sleep(0.0001)
            """
        )
        assert diags == []

    def test_directive_in_string_is_not_a_directive(self):
        diags = lint(
            """
            import time

            def poll():
                note = "# pclint: skip-file"
                time.sleep(0.0001)
                return note
            """
        )
        assert rule_ids(diags) == ["PC006"]


class TestSyntaxErrors:
    def test_unparsable_file_reports_pc000(self):
        diags = lint("def broken(:\n")
        assert rule_ids(diags) == ["PC000"]
        assert "syntax error" in diags[0].message


class TestLockNameRecognition:
    """The ``block`` veto must match whole words, not substrings.

    ``block`` contains the substring ``lock``, so a substring veto is
    needed to keep ``blocking``/``unblock`` out — but the old substring
    veto also rejected genuine locks like ``block_lock``.
    """

    def test_genuine_locks_with_block_words_recognised(self):
        from repro.analysis.static.lockutils import name_is_lock

        for name in (
            "block_lock",
            "blocking_write_lock",
            "_block_table_lock",
            "blockLock",
            "unblock_mutex",
        ):
            assert name_is_lock(name), name

    def test_veto_words_still_rejected(self):
        from repro.analysis.static.lockutils import name_is_lock

        for name in (
            "blocking",
            "unblock",
            "nonblocking",
            "blocked",
            "block_size",
            "is_blocking",
            "free_blocks",
        ):
            assert not name_is_lock(name), name

    def test_plain_names_unchanged(self):
        from repro.analysis.static.lockutils import name_is_lock

        assert name_is_lock("_lock")
        assert name_is_lock("commit_write_lock")
        assert name_is_lock("mutex")
        # "clock" contains "lock" as a substring of one word and always
        # matched; unchanged here, documented so a change is deliberate.
        assert name_is_lock("clock") is True

    def test_with_block_lock_region_detected(self):
        diags = lint(
            """
            import time

            def flush(self):
                with self.block_lock:
                    time.sleep(0.01)
            """,
            select={"PC001"},
        )
        assert rule_ids(diags) == ["PC001"]

    def test_blocking_flag_not_treated_as_lock(self):
        diags = lint(
            """
            import time

            def poll(self):
                with self.blocking:
                    time.sleep(0.01)
            """,
            select={"PC001"},
        )
        assert diags == []
