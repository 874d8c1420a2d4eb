"""Project-wide call graph with method-resolution heuristics.

Built over the :class:`~repro.analysis.static.projectindex.ProjectIndex`
symbol table.  A call is resolved in confidence order:

1. **Direct name** — a function in the same module, an import of a
   project function, or a project class constructor (→ ``__init__``).
2. **``self.m(...)`` / ``cls.m(...)``** — method lookup on the
   enclosing class and its project-local bases.
3. **Typed receiver** — the receiver's class inferred from parameter
   annotations, local ``x = ClassName(...)`` assignments, or
   ``self.attr`` types recorded during pass 1; then method lookup.
4. **Unique global name** — if exactly one project function bears the
   called name *and* the name is distinctive (not ``write``/``get``/
   ``release``-style vocabulary every library shares), link it and
   mark the edge heuristic.

The graph is deliberately an over-approximation in (4) and exact
enough in (1)–(3) for the lock-order and fence rules to follow calls
across ``engine.py`` ↔ ``distributed.py`` module boundaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.static.projectindex import FunctionInfo, ProjectIndex

#: Method names too generic for the unique-global-name fallback —
#: resolving ``handle.write`` to a project ``Device.write`` by name
#: alone would wire the graph to every file object in the tree.
COMMON_NAMES: Set[str] = {
    "write", "read", "open", "close", "get", "put", "set", "add",
    "run", "start", "stop", "join", "wait", "notify", "notify_all",
    "append", "extend", "clear", "pop", "popleft", "update", "copy",
    "format", "flush", "send", "recv", "acquire", "release", "submit",
    "result", "sort", "index", "count", "items", "keys", "values",
    "encode", "decode", "strip", "split", "load", "store", "next",
    "name", "exists", "mkdir", "exit", "persist", "view", "fill",
}


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at the call expression."""

    caller: str  # caller qualname
    callee: str  # callee qualname
    path: str  # caller's file
    lineno: int
    col: int
    heuristic: bool  # resolved by the unique-name fallback
    #: The call expression itself, so flow rules can locate it in the
    #: caller's CFG without re-searching by position.
    call: object = field(default=None, repr=False, compare=False)


def own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """Caller/callee edges over every indexed function."""

    def __init__(self, index: ProjectIndex) -> None:
        self._index = index
        self.edges: List[CallSite] = []
        self._callees: Dict[str, List[CallSite]] = {}
        self._callers: Dict[str, List[CallSite]] = {}
        for finfo in index.functions.values():
            env = index.local_types(finfo)
            for node in own_nodes(finfo.node):
                if not isinstance(node, ast.Call):
                    continue
                for callee, heuristic in self.resolve(finfo, node, env):
                    site = CallSite(
                        caller=finfo.qualname,
                        callee=callee,
                        path=finfo.path,
                        lineno=node.lineno,
                        col=node.col_offset,
                        heuristic=heuristic,
                        call=node,
                    )
                    self.edges.append(site)
                    self._callees.setdefault(finfo.qualname, []).append(site)
                    self._callers.setdefault(callee, []).append(site)

    # ------------------------------------------------------------------

    def callees_of(self, qualname: str) -> List[CallSite]:
        return self._callees.get(qualname, [])

    def callers_of(self, qualname: str) -> List[CallSite]:
        return self._callers.get(qualname, [])

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self._index.functions.get(qualname)

    # ------------------------------------------------------------------
    # resolution

    def resolve(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        env: Optional[Dict[str, str]] = None,
    ) -> List:
        """(callee qualname, heuristic?) candidates for one call."""
        index = self._index
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            own = index.functions.get(f"{caller.module}.{name}")
            if own is not None:
                return [(own.qualname, False)]
            cls = index.resolve_class(name, caller.module)
            if cls is not None:
                ctor = index.method_on(cls, "__init__")
                return [(ctor.qualname, False)] if ctor is not None else []
            imported = index._imports.get(caller.module, {}).get(name)
            if imported is not None:
                resolved = self._resolve_dotted(imported)
                if resolved is not None:
                    return [(resolved, False)]
            return self._fallback(name)
        if isinstance(func, ast.Attribute):
            name = func.attr
            owner = index.infer_type(func.value, caller, env)
            if owner is not None:
                method = index.method_on(owner, name)
                if method is not None:
                    return [(method.qualname, False)]
                # Known receiver type without such a method: stdlib /
                # duck-typed — do not guess globally.
                return []
            return self._fallback(name)
        return []

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """``repro.core.writer.split_range`` → function qualname."""
        index = self._index
        head, _, name = dotted.rpartition(".")
        if not head:
            return None
        module = index.module_for(head)
        if module is None:
            return None
        finfo = index.functions.get(f"{module}.{name}")
        return finfo.qualname if finfo is not None else None

    def _fallback(self, name: str) -> List:
        if name in COMMON_NAMES or name.startswith("__"):
            return []
        hits = self._index.functions_named(name)
        if len(hits) == 1:
            return [(hits[0].qualname, True)]
        return []


def get_callgraph(index: ProjectIndex) -> CallGraph:
    """The call graph for ``index``, built once per refresh generation.

    Cached in :attr:`ProjectIndex.derived`, which the index clears on
    any record change and drops when pickling.
    """
    graph = index.derived.get("callgraph")
    if not isinstance(graph, CallGraph):
        graph = CallGraph(index)
        index.derived["callgraph"] = graph
    return graph
