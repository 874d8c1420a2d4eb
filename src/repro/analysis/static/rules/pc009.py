"""PC009: lock-order cycles across the whole program.

Two locks acquired in opposite orders on different code paths can
deadlock: thread 1 holds A and wants B while thread 2 holds B and
wants A.  The checkpointer is exactly the kind of code where this
bites — the engine, coordinator, tracer and writer each own a lock
and call across module boundaries (the coordinator hands settled
rounds' slots back to each engine only after dropping its own).

This rule builds the global lock-order graph (every ``with <lock>:``
region, plus locks acquired transitively by functions the region
calls) and reports each simple cycle once, naming both acquisition
sites and the call path that connects them.  The diagnostic anchors at
the first edge's acquisition/call site so a justified ordering can be
suppressed exactly where it happens.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.static.callgraph import get_callgraph
from repro.analysis.static.diagnostics import Diagnostic
from repro.analysis.static.lockgraph import LockOrderGraph, short_lock
from repro.analysis.static.rulebase import ProjectRule, register


def _short_func(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


@register
class LockOrderCycle(ProjectRule):
    rule_id = "PC009"
    title = "lock-order cycle (potential ABBA deadlock)"

    def check_project(self, index) -> Iterable[Diagnostic]:
        graph = get_callgraph(index)
        lock_graph = index.derived.get("lockgraph")
        if not isinstance(lock_graph, LockOrderGraph):
            lock_graph = LockOrderGraph(index, graph)
            index.derived["lockgraph"] = lock_graph
        for cycle in lock_graph.cycles():
            locks = " -> ".join(
                short_lock(edge.holder) for edge in cycle
            ) + f" -> {short_lock(cycle[0].holder)}"
            legs = []
            for edge in cycle:
                leg = (
                    f"'{short_lock(edge.holder)}' held in "
                    f"{_short_func(edge.func)} while "
                    f"'{short_lock(edge.acquired)}' is acquired at "
                    f"{edge.acquired_at[0]}:{edge.acquired_at[1]}"
                )
                if edge.via:
                    leg += " via " + " -> ".join(
                        _short_func(q) for q in edge.via
                    )
                legs.append(leg)
            first = cycle[0]
            yield self.report_at(
                first.path,
                first.line,
                1,
                f"lock-order cycle {locks}: " + "; ".join(legs),
            )
