"""PC004: commit-record writes must respect fence discipline.

The recovery protocol is only sound when (a) the commit record cannot
name a checkpoint whose payload or slot header might be lost without
recovery noticing, and (b) the commit record itself is fenced before
anyone acts on the commit.  On PMEM, where the commit is a bare pointer
nothing validates, (a) means Listing 1's order: payload and header
durable before the record is written.  On a single-fence device every
link is checksummed — the record's own CRC, the header's counter, the
payload CRC in the header — so one fence over record, header and payload
together satisfies (a) too (docs/ALGORITHM.md, "Commit on a file
region").  The rule checks the conservative lexical form, inside one
function:

* a commit-record write (a ``.write(...)`` whose arguments involve
  ``encode_commit_record`` or ``commit_offset``) must be followed by a
  fence call (``persist``/``fsync``/``msync``/``sfence``...) before the
  function can return, and
* if the same function wrote slot data or a slot header earlier, a
  fence must sit between that write and the commit-record write.

Cross-function fence ordering (e.g. the engine persisting the slot
header in ``_commit`` before calling ``_write_commit_record``) is out
of lexical reach.  In project mode the interprocedural PC010 owns the
"followed by a fence" half — it sees fences placed in callers and in
callees that always fence (a ``_barrier()``-style helper) — so this
rule then checks only the intra-function slot-write-before-commit
ordering and leaves the rest to PC010.  Single-file runs keep both halves.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.static.astutils import (
    call_name,
    contains_call_named,
    iter_calls,
    iter_functions,
    mentions_name,
    position,
)
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.rulebase import FileContext, Rule, register

#: Calls that act as a durability fence.
FENCE_CALLS = {"persist", "fsync", "fdatasync", "msync", "sfence", "sync"}

#: Markers identifying a write as targeting the commit record.
_COMMIT_MARKERS = ("encode_commit_record", "commit_offset")

#: Markers identifying a write as targeting slot data / headers.
_SLOT_MARKERS = ("encode_slot_header", "slot_offset", "payload_offset")


def _is_write(call: ast.Call) -> bool:
    return call_name(call) == "write"


def _targets_commit_record(call: ast.Call) -> bool:
    return any(
        contains_call_named(arg, "encode_commit_record")
        or mentions_name(arg, "commit_offset")
        for arg in call.args
    )


def _targets_slot(call: ast.Call) -> bool:
    return any(
        any(
            contains_call_named(arg, marker) or mentions_name(arg, marker)
            for marker in _SLOT_MARKERS
        )
        for arg in call.args
    )


@register
class UnfencedCommitRecord(Rule):
    rule_id = "PC004"
    title = "commit-record write without fence discipline"

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        for func in iter_functions(ctx.tree):
            yield from self._check_function(ctx, func)

    def _check_function(self, ctx, func) -> Iterable[Diagnostic]:
        calls: List[ast.Call] = sorted(iter_calls(func), key=position)
        commit_writes = [
            c for c in calls if _is_write(c) and _targets_commit_record(c)
        ]
        if not commit_writes:
            return
        fences = [c for c in calls if call_name(c) in FENCE_CALLS]
        slot_writes = [
            c
            for c in calls
            if _is_write(c)
            and not _targets_commit_record(c)
            and _targets_slot(c)
        ]
        for write in commit_writes:
            if not ctx.project_mode and not any(
                position(f) > position(write) for f in fences
            ):
                yield self.report(
                    ctx,
                    write,
                    "commit-record write is not followed by a fence/persist "
                    "call before the function exits",
                )
            for slot_write in slot_writes:
                if position(slot_write) < position(write) and not any(
                    position(slot_write) < position(f) < position(write)
                    for f in fences
                ):
                    yield self.report(
                        ctx,
                        write,
                        "commit-record write is not preceded by a fence for "
                        f"the slot write on line {slot_write.lineno}",
                    )
