"""PC010: interprocedural fence coverage for commit-record writes.

PC004's lexical check stops at the function boundary, which forces the
fence into the same function as the write even when the design puts it
one level up (the engine persists after ``_write_commit_record``
returns; a multi-chunk payload is covered by the one fence its commit
issues).  This rule lifts the check to the whole program:

a commit-record write is *covered* when, on **every** CFG path from
the write, a fence executes before control leaves the program's reach
— in the writing function itself, in a callee that always fences
(computed as a fixed point, so helpers like ``_barrier()`` count), or
in a transitive caller after the call returns.  No helper is
special-cased by name: a call counts as a fence when its callee is in
the always-fencing set — ``ParallelWriter.reap``, which only waits for
the writes to return, is not.

``raise`` paths carry no obligation (recovery re-derives state from
what *was* persisted), and a function nobody calls must fence locally
— a public entry point cannot outsource its durability.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.static.astutils import call_name, position
from repro.analysis.static.callgraph import CallGraph, CallSite, get_callgraph
from repro.analysis.static.cfg import all_paths_reach
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.projectindex import FunctionInfo
from repro.analysis.static.rulebase import ProjectRule, register
from repro.analysis.static.rules.pc004 import (
    FENCE_CALLS,
    _is_write,
    _targets_commit_record,
)

#: How many caller levels may supply the covering fence.
MAX_CALLER_DEPTH = 4


@register
class InterprocedurallyUnfencedCommit(ProjectRule):
    rule_id = "PC010"
    title = "commit-record write unfenced on some interprocedural path"

    def check_project(self, index) -> Iterable[Diagnostic]:
        graph = get_callgraph(index)
        fencing = _always_fencing(index, graph)
        for finfo in index.functions.values():
            for write in self._commit_writes(finfo):
                if self._covered_after(finfo, write, graph, fencing):
                    continue
                chain = self._caller_chain(
                    index, graph, fencing, finfo.qualname, set(), 0
                )
                if chain is None:
                    continue
                yield self.report_at(
                    finfo.path,
                    write.lineno,
                    write.col_offset + 1,
                    self._message(finfo, chain),
                )

    # ------------------------------------------------------------------

    def _commit_writes(self, finfo: FunctionInfo) -> List[ast.Call]:
        writes = []
        cfg = finfo.cfg
        for node_id in range(len(cfg.statements)):
            for call in cfg.calls_in(node_id):
                if _is_write(call) and _targets_commit_record(call):
                    writes.append(call)
        return writes

    def _covered_after(
        self,
        finfo: FunctionInfo,
        target: ast.Call,
        graph: CallGraph,
        fencing: Set[str],
    ) -> bool:
        """Does every path after ``target`` fence before leaving ``finfo``?"""
        cfg = finfo.cfg
        node_id = cfg.node_of(target)
        if node_id is None:
            # Inside a nested def or comprehension the CFG does not
            # model; do not guess a violation.
            return True
        for later in cfg.calls_in(node_id):
            if position(later) > position(target) and _is_fence(
                later, finfo, graph, fencing
            ):
                return True
        return all_paths_reach(
            cfg,
            lambda nid: _node_fences(cfg, nid, finfo, graph, fencing),
            cfg.succ[node_id],
        )

    def _caller_chain(
        self,
        index,
        graph: CallGraph,
        fencing: Set[str],
        qualname: str,
        seen: Set[str],
        depth: int,
    ) -> Optional[List[CallSite]]:
        """A witness chain of callers with no covering fence, or None.

        None means every caller path fences after the call returns.  An
        empty list means the function has no callers at all (it must
        fence locally and does not).
        """
        if depth > MAX_CALLER_DEPTH:
            return []
        callers = graph.callers_of(qualname)
        if not callers:
            return []
        for site in callers:
            caller = index.functions.get(site.caller)
            if caller is None:
                return [site]
            if isinstance(site.call, ast.Call) and self._covered_after(
                caller, site.call, graph, fencing
            ):
                continue
            if site.caller in seen:
                continue  # recursion: some other path must cover it
            sub = self._caller_chain(
                index, graph, fencing, site.caller, seen | {site.caller}, depth + 1
            )
            if sub is not None:
                return [site] + sub
        return None

    def _message(self, finfo: FunctionInfo, chain: List[CallSite]) -> str:
        base = (
            "commit-record write can complete without a covering fence: "
            f"no fence (direct or in an always-fencing callee) on every path out of "
            f"'{finfo.name}'"
        )
        if not chain:
            return base + " and no caller supplies one"
        hops = ", then ".join(
            f"'{site.caller.split('.')[-1]}' ({site.path}:{site.lineno})"
            for site in chain
        )
        return base + f"; unfenced call path via {hops}"


# ----------------------------------------------------------------------


def _is_fence(
    call: ast.Call, finfo: FunctionInfo, graph: CallGraph, fencing: Set[str]
) -> bool:
    name = call_name(call)
    if name in FENCE_CALLS:
        return True
    return any(
        callee in fencing for callee, _ in graph.resolve(finfo, call)
    )


def _node_fences(cfg, node_id, finfo, graph, fencing) -> bool:
    return any(
        _is_fence(call, finfo, graph, fencing)
        for call in cfg.calls_in(node_id)
    )


def _always_fencing(index, graph: CallGraph) -> Set[str]:
    """Functions guaranteed to fence on every normal-exit path.

    Least fixed point starting from "nothing fences": a function joins
    the set when every CFG path from entry to exit crosses a direct
    fence call or a call to a function already in the set.  Seeded by
    the direct calls, grown until stable — so ``_barrier()`` wrapping
    ``device.persist()`` counts, and so does a wrapper around the
    wrapper.
    """
    fencing: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualname, finfo in index.functions.items():
            if qualname in fencing:
                continue
            cfg = finfo.cfg
            if not cfg.statements:
                continue
            if all_paths_reach(
                cfg,
                lambda nid, f=finfo, c=cfg: _node_fences(
                    c, nid, f, graph, fencing
                ),
                cfg.entry,
            ):
                fencing.add(qualname)
                changed = True
    return fencing
