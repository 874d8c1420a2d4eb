"""Global lock-order graph and cycle enumeration for PC009.

Every ``with <lock>:`` region in the project contributes *ordering
edges*: while the region's lock is held, any lock acquired inside it —
directly by a nested ``with``, or transitively by a function the region
calls (followed through the call graph, depth-bounded) — is ordered
after it.  Two locks acquired in opposite orders on different code
paths form a cycle: the classic ABBA deadlock.

Lock identity is canonical, not lexical: ``self._held_lock`` inside
``CheckpointEngine.release_held_slot`` and ``self._engine._held_lock``
seen from a caller both resolve to ``CheckpointEngine._held_lock`` when
type inference succeeds.  Locks whose owner cannot be resolved (and
function locals, which cannot participate in a cross-function cycle)
are kept out of the graph rather than guessed — a deadlock report must
name two real locks or it is noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.static.callgraph import CallGraph, own_nodes
from repro.analysis.static.lockutils import expr_is_lock
from repro.analysis.static.projectindex import FunctionInfo, ProjectIndex

#: How many call edges to follow from a lock-holding region.
MAX_CALL_DEPTH = 3

#: Cap on reported cycles; beyond this the graph is already on fire.
MAX_CYCLES = 10


@dataclass(frozen=True)
class LockSite:
    """One acquisition of a canonical lock."""

    lock: str  # canonical id, e.g. ClassQualname._attr
    path: str
    line: int
    func: str  # qualname of the acquiring function


@dataclass(frozen=True)
class LockEdge:
    """``holder`` held while ``acquired`` is taken.

    ``path``/``line`` anchor the edge in the *holder's* function: the
    nested ``with`` itself, or the call expression that transitively
    acquires.  ``via`` is the call chain (callee qualnames) between the
    holding region and the acquisition, empty for a direct nesting.
    ``acquired_at`` is the actual ``with`` statement of the second
    acquisition for the report.
    """

    holder: str
    acquired: str
    path: str
    line: int
    func: str
    via: Tuple[str, ...]
    acquired_at: Tuple[str, int]


def short_lock(lock: str) -> str:
    """Human-readable form of a canonical lock id (drop the path part)."""
    parts = lock.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else lock


class LockOrderGraph:
    """All lock-ordering edges in the project, plus cycle search."""

    def __init__(self, index: ProjectIndex, graph: CallGraph) -> None:
        self._index = index
        self._graph = graph
        self.edges: List[LockEdge] = []
        self._module_globals: Dict[str, Set[str]] = {}
        self._transitive: Dict[str, List[Tuple[LockSite, Tuple[str, ...]]]] = {}
        for finfo in index.functions.values():
            self._edges_in(finfo)

    # ------------------------------------------------------------------
    # lock identity

    def lock_id(self, expr: ast.expr, func: FunctionInfo) -> Optional[str]:
        """Canonical id of a lock expression, or None when unresolvable.

        Resolution order: owner type inference (``ClassQual.attr``),
        module-level globals (``module.name``).  Locals and unresolved
        receivers return None and stay out of the graph.
        """
        index = self._index
        if isinstance(expr, ast.Attribute):
            owner = index.infer_type(expr.value, func)
            if owner is not None:
                return f"{owner.qualname}.{expr.attr}"
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self._globals_of(func.module):
                return f"{func.module}.{expr.id}"
            return None
        return None

    def _globals_of(self, module: str) -> Set[str]:
        cached = self._module_globals.get(module)
        if cached is not None:
            return cached
        names: Set[str] = set()
        path = self._index._module_paths.get(module)
        record = self._index.record_for(path) if path else None
        if record is not None and record.tree is not None:
            for stmt in record.tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    names.add(stmt.target.id)
        self._module_globals[module] = names
        return names

    # ------------------------------------------------------------------
    # edge extraction

    def _regions(
        self, finfo: FunctionInfo
    ) -> List[Tuple[ast.With, List[Tuple[str, int]]]]:
        """(with-stmt, [(canonical lock, line)]) for one function."""
        regions = []
        for node in own_nodes(finfo.node):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            locks: List[Tuple[str, int]] = []
            for item in node.items:
                expr = item.context_expr
                if not expr_is_lock(expr):
                    continue
                lock = self.lock_id(expr, finfo)
                if lock is not None:
                    locks.append((lock, node.lineno))
            if locks:
                regions.append((node, locks))
        return regions

    def _edges_in(self, finfo: FunctionInfo) -> None:
        for region, held in self._regions(finfo):
            inner_withs = [
                n
                for body_stmt in region.body
                for n in ast.walk(body_stmt)
                if isinstance(n, (ast.With, ast.AsyncWith))
            ]
            acquired_direct: List[LockSite] = []
            for inner in inner_withs:
                for item in inner.items:
                    expr = item.context_expr
                    if not expr_is_lock(expr):
                        continue
                    lock = self.lock_id(expr, finfo)
                    if lock is not None:
                        acquired_direct.append(
                            LockSite(lock, finfo.path, inner.lineno, finfo.qualname)
                        )
            calls = [
                n
                for body_stmt in region.body
                for n in ast.walk(body_stmt)
                if isinstance(n, ast.Call)
            ]
            for holder, _line in held:
                for site in acquired_direct:
                    self._add(holder, site, finfo, site.line, via=())
                for call in calls:
                    for callee, _ in self._graph.resolve(finfo, call):
                        for site, chain in self._transitive_locks(callee):
                            self._add(
                                holder, site, finfo, call.lineno, via=chain
                            )

    def _add(
        self,
        holder: str,
        site: LockSite,
        finfo: FunctionInfo,
        line: int,
        via: Tuple[str, ...],
    ) -> None:
        if site.lock == holder:
            return  # re-entrant acquisition of the same lock (RLock)
        self.edges.append(
            LockEdge(
                holder=holder,
                acquired=site.lock,
                path=finfo.path,
                line=line,
                func=finfo.qualname,
                via=via,
                acquired_at=(site.path, site.line),
            )
        )

    def _transitive_locks(
        self, qualname: str, depth: int = 0, _seen: Optional[Set[str]] = None
    ) -> List[Tuple[LockSite, Tuple[str, ...]]]:
        """Locks ``qualname`` may acquire, with the call chain to them."""
        if depth == 0 and qualname in self._transitive:
            return self._transitive[qualname]
        seen = _seen if _seen is not None else set()
        if qualname in seen or depth > MAX_CALL_DEPTH:
            return []
        seen.add(qualname)
        finfo = self._index.functions.get(qualname)
        if finfo is None:
            return []
        results: List[Tuple[LockSite, Tuple[str, ...]]] = []
        for _region, held in self._regions(finfo):
            for lock, line in held:
                results.append(
                    (
                        LockSite(lock, finfo.path, line, finfo.qualname),
                        (qualname,),
                    )
                )
        for site in self._graph.callees_of(qualname):
            for lock_site, chain in self._transitive_locks(
                site.callee, depth + 1, seen
            ):
                results.append((lock_site, (qualname,) + chain))
        if depth == 0:
            self._transitive[qualname] = results
        return results

    # ------------------------------------------------------------------
    # cycle enumeration

    def cycles(self) -> List[List[LockEdge]]:
        """Simple lock-order cycles, each as its list of edges.

        Cycles are canonicalised (rotation starting at the smallest
        lock id) and deduplicated on their set of (holder, acquired)
        pairs, so ABBA is reported once however many regions realise
        each direction.
        """
        by_holder: Dict[str, List[LockEdge]] = {}
        best: Dict[Tuple[str, str], LockEdge] = {}
        for edge in self.edges:
            key = (edge.holder, edge.acquired)
            # Prefer the most direct witness for each ordering pair.
            if key not in best or len(edge.via) < len(best[key].via):
                best[key] = edge
        for edge in best.values():
            by_holder.setdefault(edge.holder, []).append(edge)

        found: List[List[LockEdge]] = []
        seen_keys: Set[Tuple[Tuple[str, str], ...]] = set()

        def dfs(start: str, node: str, path: List[LockEdge]) -> None:
            if len(found) >= MAX_CYCLES or len(path) > 4:
                return
            for edge in by_holder.get(node, []):
                if edge.acquired == start and path:
                    cycle = path + [edge]
                    key = tuple(
                        sorted((e.holder, e.acquired) for e in cycle)
                    )
                    if key not in seen_keys:
                        seen_keys.add(key)
                        found.append(cycle)
                    continue
                if any(e.holder == edge.acquired for e in path):
                    continue
                if edge.acquired < start:
                    continue  # canonical start: smallest lock id
                dfs(start, edge.acquired, path + [edge])

        for start in sorted(by_holder):
            dfs(start, start, [])
        return found
