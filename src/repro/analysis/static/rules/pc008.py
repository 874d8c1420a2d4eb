"""PC008: payload copies on the zero-copy persist and restore hot paths.

The persist pipeline threads buffer-protocol objects end to end: the
staging copy into the pinned DRAM buffer is the *one* intentional copy
per checkpoint, and everything between it and the device moves
memoryview slices.  The restore path mirrors it: ``readinto`` lands
every chunk in one destination buffer that is handed to the caller as
is.  Four patterns silently reintroduce copies:

* ``bytes(payload)`` — re-materializes the whole payload (the old
  ``BytesSource(bytes(state))`` double-copy);
* ``payload[lo:hi]`` on a ``bytes``/``bytearray``-typed local — slicing
  copies the range, which on the writer's share split meant one extra
  full-payload copy per persist;
* ``b"".join(chunks)`` — gathers pieces that were each already a copy
  into yet another one (the old restore path's
  ``pread → list of bytes → join``: two copies per recovered byte);
* ``buf[lo:hi] = view`` where ``buf`` is a ``bytearray`` and ``view`` is
  not — CPython first materializes the right-hand side as a temporary
  ``bytearray``, so the "one staging copy" was a payload-sized
  allocation plus two memcpys under the GIL (the old
  ``PinnedBuffer.fill``).

The rule flags the first three for payload-carrying names in the
hot-path modules of ``repro/core/`` (engine, writer, orchestrator,
chunking, recovery).  Views are exempt: slicing a ``memoryview`` is
O(1), so names like ``view`` stay clean — normalize with
:func:`repro.storage.device.as_view` first and slice the view; read into
a destination buffer instead of joining.  The fourth needs to know what
the assignment's *target* is, which no name convention tells: it runs in
the whole-program pass, on targets the project index saw initialised
from ``bytearray(...)`` (a local, or a ``self.`` attribute anywhere in
the class), over the hot-path modules plus ``repro/storage/`` and
``repro/baselines/`` — copy with
:func:`repro.storage.device.copy_into` instead.  Intentional sites
carry a ``# pclint: disable=PC008`` suppression.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable

from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.projectindex import BYTEARRAY
from repro.analysis.static.rulebase import FileContext, ProjectRule, register

#: Local/attribute names that carry checkpoint payload bytes.
PAYLOAD_NAMES = frozenset({"payload", "chunk", "data", "snapshot"})

#: Hot-path modules where a stray copy costs a payload's worth of DRAM
#: bandwidth per checkpoint.
HOT_MODULES = frozenset(
    {"engine.py", "writer.py", "orchestrator.py", "chunking.py",
     "recovery.py"}
)


def _on_hot_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return (
        "repro/core/" in normalized
        and os.path.basename(normalized) in HOT_MODULES
    )


def _stages_payloads(path: str) -> bool:
    """Hot path, or a module that owns a staging/device ``bytearray``."""
    normalized = path.replace("\\", "/")
    return (
        _on_hot_path(path)
        or "repro/storage/" in normalized
        or "repro/baselines/" in normalized
    )


def _payload_name(node: ast.expr) -> str:
    """The payload-ish name an expression refers to, or ``""``."""
    if isinstance(node, ast.Name) and node.id in PAYLOAD_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in PAYLOAD_NAMES:
        return node.attr
    return ""


def _joined_payload_name(node: ast.Call) -> str:
    """For ``b"".join(arg)``: the first payload-ish name (singular or
    plural — ``chunks`` is a list of ``chunk``) ``arg`` mentions."""
    func = node.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr == "join"
        and isinstance(func.value, ast.Constant)
        and isinstance(func.value.value, bytes)
        and len(node.args) == 1
    ):
        return ""
    for inner in ast.walk(node.args[0]):
        name = getattr(inner, "id", None) or getattr(inner, "attr", None)
        if isinstance(name, str) and (
            name in PAYLOAD_NAMES or name.rstrip("s") in PAYLOAD_NAMES
        ):
            return name
    return ""


@register
class PayloadCopyOnHotPath(ProjectRule):
    rule_id = "PC008"
    title = "payload copy on the zero-copy persist/restore path"

    def check_project(self, index) -> Iterable[Diagnostic]:
        for finfo in index.functions.values():
            if not _stages_payloads(finfo.path):
                continue
            slice_assigns = [
                (node, target)
                for node in ast.walk(finfo.node)
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Slice)
            ]
            if not slice_assigns:
                continue  # most functions: skip the type inference
            env = index.local_types(finfo)

            def is_bytearray(expr: ast.expr) -> bool:
                if isinstance(expr, ast.Subscript) and isinstance(
                    expr.slice, ast.Slice
                ):
                    expr = expr.value  # a bytearray's slice is a bytearray
                return index.expr_class_qual(expr, finfo, env) == BYTEARRAY

            for node, target in slice_assigns:
                if is_bytearray(target.value) and not is_bytearray(node.value):
                    yield self.report_at(
                        finfo.path,
                        node.lineno,
                        node.col_offset + 1,
                        f"slice-assigning into the bytearray "
                        f"{ast.unparse(target.value)} copies twice: "
                        f"CPython materializes a non-bytearray "
                        f"right-hand side as a temporary bytearray "
                        f"first — use copy_into(dest, offset, view)",
                    )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        if not _on_hot_path(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("bytes", "bytearray")
                and len(node.args) == 1
            ):
                name = _payload_name(node.args[0])
                if name:
                    yield self.report(
                        ctx,
                        node,
                        f"{node.func.id}({name}) materializes a full "
                        f"payload copy on the persist hot path: pass the "
                        f"buffer through as_view() and slice the view",
                    )
            elif isinstance(node, ast.Call):
                name = _joined_payload_name(node)
                if name:
                    yield self.report(
                        ctx,
                        node,
                        f"joining {name} gathers pieces that were each "
                        f"already a copy into another one: readinto() one "
                        f"destination buffer and hand out views of it",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Slice
            ):
                name = _payload_name(node.value)
                if name:
                    yield self.report(
                        ctx,
                        node,
                        f"slicing {name}[...] copies the range when the "
                        f"payload is bytes/bytearray: slice a memoryview "
                        f"(as_view({name})[lo:hi]) instead",
                    )
