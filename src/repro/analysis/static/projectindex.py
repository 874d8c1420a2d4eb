"""Pass 1 of the whole-program analysis: the shared project index.

The index parses every file exactly once and exposes everything the
whole-program rules (PC009–PC011) and the incremental runner need:

* per-file records — source, AST, suppression directives, and the
  per-file rule findings computed at parse time;
* a project-wide symbol table — modules, classes (with base classes,
  methods and inferred attribute types) and functions;
* content-hash incrementality — :meth:`ProjectIndex.refresh` re-parses
  only files whose SHA-256 changed since the last refresh, so a warm
  run over an unchanged tree parses **zero** files (observable through
  :attr:`ProjectIndex.parse_count`, which the incremental-cache tests
  and the CI cache rely on);
* pickling — the whole index round-trips through ``pickle`` so CI can
  key a cache file on source hashes and skip pass 1 entirely on warm
  runs.

Name resolution is heuristic (CPython gives the linter no types): it
combines per-module symbol tables, project-internal import maps, local
assignment/annotation type inference, and a unique-global-name
fallback.  :mod:`repro.analysis.static.callgraph` builds the call graph
on top of these primitives.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.static.cfg import CFG, build_cfg
from repro.analysis.static.diagnostics import (
    Diagnostic,
    SYNTAX_RULE_ID,
)
from repro.analysis.static.suppress import SuppressionIndex

#: Bump when the record layout changes; stale pickled caches are dropped.
CACHE_VERSION = 2

#: Type the inference assigns to ``bytearray(...)`` — the one builtin it
#: tracks, because slice-assigning into one copies twice (PC008).
BYTEARRAY = "builtins.bytearray"


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str
    name: str
    module: str
    path: str
    lineno: int
    node: object  # ast.FunctionDef | ast.AsyncFunctionDef
    cls: Optional[str] = None  # owning class qualname, if a method
    _cfg: Optional[CFG] = field(default=None, repr=False)

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node)
        return self._cfg


@dataclass
class ClassInfo:
    """One class: methods, declared bases, and inferred attribute types."""

    qualname: str
    name: str
    module: str
    path: str
    node: object  # ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname
    #: self.<attr> -> class qualname, inferred from constructor calls.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class FileRecord:
    """Everything pass 1 learned about one source file."""

    path: str
    sha: str
    source: str
    tree: Optional[ast.Module]
    module: str
    suppressions: SuppressionIndex
    #: Per-file rule findings (suppression-filtered) frozen at parse time.
    file_diagnostics: List[Diagnostic] = field(default_factory=list)
    readable: bool = True


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def module_name_of(path: str) -> str:
    """A dotted module id for ``path``, unique per file.

    Uses the full path so fixture trees never collide; import
    resolution matches on *suffixes* of this id (see
    :meth:`ProjectIndex.module_for`), which recovers the conventional
    ``repro.core.writer``-style names for files under a ``src`` root.
    """
    norm = os.path.normpath(os.path.abspath(path))
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = [p for p in norm.replace(os.sep, "/").split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "module"


class ProjectIndex:
    """Incremental whole-project symbol and AST index."""

    def __init__(self) -> None:
        self.cache_version = CACHE_VERSION
        self.records: Dict[str, FileRecord] = {}
        #: Files parsed by *this* instance since construction / unpickle.
        self.parse_count = 0
        self._symbols_dirty = True
        self._functions: Dict[str, FunctionInfo] = {}
        self._classes: Dict[str, ClassInfo] = {}
        self._functions_by_name: Dict[str, List[str]] = {}
        self._classes_by_name: Dict[str, List[str]] = {}
        self._imports: Dict[str, Dict[str, str]] = {}  # module -> local -> target
        self._module_paths: Dict[str, str] = {}  # full module id -> path
        #: Per-run memo for derived analyses (call graph, lock graph);
        #: cleared whenever any record changes and never pickled.
        self.derived: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # pickling: drop unpicklable/derived state, reset the parse counter

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_symbols_dirty"] = True
        state["_functions"] = {}
        state["_classes"] = {}
        state["_functions_by_name"] = {}
        state["_classes_by_name"] = {}
        state["_imports"] = {}
        state["_module_paths"] = {}
        state["derived"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # A thawed index has parsed nothing yet: warm-cache runs report
        # only the parses they actually perform.
        self.parse_count = 0

    # ------------------------------------------------------------------
    # pass 1: parse + per-file rules, incrementally

    def refresh(self, paths: Sequence[str]) -> List[str]:
        """Bring the index up to date for every file under ``paths``.

        Returns the ordered list of files covered by this refresh.
        Unchanged files (same content hash) are *not* re-parsed; their
        cached records — including per-file diagnostics — are reused.
        """
        from repro.analysis.static.runner import iter_python_files

        seen: List[str] = []
        changed = False
        for path in iter_python_files(paths):
            key = os.path.normpath(path)
            seen.append(key)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                self.records[key] = FileRecord(
                    path=key,
                    sha="",
                    source="",
                    tree=None,
                    module=module_name_of(key),
                    suppressions=SuppressionIndex(),
                    file_diagnostics=[
                        Diagnostic(
                            path=key,
                            line=1,
                            col=1,
                            rule_id=SYNTAX_RULE_ID,
                            message=f"cannot read file: {exc}",
                        )
                    ],
                    readable=False,
                )
                changed = True
                continue
            sha = _sha256(source.encode("utf-8"))
            record = self.records.get(key)
            if record is not None and record.sha == sha and record.readable:
                continue
            self.records[key] = self._parse(key, source, sha)
            changed = True
        # Prune records for files that vanished from the walked roots.
        seen_set = set(seen)
        roots = [os.path.normpath(p) for p in paths]
        for key in list(self.records):
            if key in seen_set:
                continue
            if any(key == r or key.startswith(r + os.sep) for r in roots):
                del self.records[key]
                changed = True
        if changed:
            self._symbols_dirty = True
            self.derived.clear()
        return seen

    def _parse(self, path: str, source: str, sha: str) -> FileRecord:
        from repro.analysis.static.rulebase import FileContext, all_rules

        self.parse_count += 1
        module = module_name_of(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return FileRecord(
                path=path,
                sha=sha,
                source=source,
                tree=None,
                module=module,
                suppressions=SuppressionIndex(),
                file_diagnostics=[
                    Diagnostic(
                        path=path,
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        rule_id=SYNTAX_RULE_ID,
                        message=f"syntax error: {exc.msg}",
                    )
                ],
            )
        suppressions = SuppressionIndex.from_source(source)
        diagnostics: List[Diagnostic] = []
        if not suppressions.skip_file:
            ctx = FileContext(
                path=path, source=source, tree=tree, project_mode=True
            )
            # Whole-program rules contribute their per-file half, if any.
            for rule in all_rules():
                diagnostics.extend(rule.check(ctx))
            diagnostics = sorted(
                d
                for d in set(diagnostics)
                if not suppressions.is_suppressed(d, project=False)
            )
        return FileRecord(
            path=path,
            sha=sha,
            source=source,
            tree=tree,
            module=module,
            suppressions=suppressions,
            file_diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # symbol table (derived lazily from the records)

    def _ensure_symbols(self) -> None:
        if not self._symbols_dirty:
            return
        self._functions = {}
        self._classes = {}
        self._functions_by_name = {}
        self._classes_by_name = {}
        self._imports = {}
        self._module_paths = {}
        for record in self.records.values():
            if record.tree is None:
                continue
            self._module_paths[record.module] = record.path
            self._imports[record.module] = _import_map(record.tree)
            self._collect_defs(record)
        # Mark clean *before* attribute-type inference: it resolves
        # class names through the lookups above, which would otherwise
        # re-enter this method forever.
        self._symbols_dirty = False
        self._infer_attr_types()

    def _collect_defs(self, record: FileRecord) -> None:
        module = record.module

        def walk(body: Iterable[ast.stmt], prefix: str, cls: Optional[str]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{stmt.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        name=stmt.name,
                        module=module,
                        path=record.path,
                        lineno=stmt.lineno,
                        node=stmt,
                        cls=cls,
                    )
                    self._functions[qual] = info
                    self._functions_by_name.setdefault(stmt.name, []).append(qual)
                    if cls is not None:
                        self._classes[cls].methods.setdefault(stmt.name, qual)
                    walk(stmt.body, qual, None)
                elif isinstance(stmt, ast.ClassDef):
                    qual = f"{prefix}.{stmt.name}"
                    cinfo = ClassInfo(
                        qualname=qual,
                        name=stmt.name,
                        module=module,
                        path=record.path,
                        node=stmt,
                        bases=[b for b in map(_base_name, stmt.bases) if b],
                    )
                    self._classes[qual] = cinfo
                    self._classes_by_name.setdefault(stmt.name, []).append(qual)
                    walk(stmt.body, qual, qual)

        walk(record.tree.body, module, None)

    def _infer_attr_types(self) -> None:
        for cinfo in self._classes.values():
            for method_qual in cinfo.methods.values():
                finfo = self._functions.get(method_qual)
                if finfo is None:
                    continue
                env = self.local_types(finfo)
                for stmt in ast.walk(finfo.node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    resolved = self.expr_class_qual(stmt.value, finfo, env)
                    if resolved is None:
                        continue
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            cinfo.attr_types.setdefault(target.attr, resolved)

    # ------------------------------------------------------------------
    # lookups

    @property
    def functions(self) -> Dict[str, FunctionInfo]:
        self._ensure_symbols()
        return self._functions

    @property
    def classes(self) -> Dict[str, ClassInfo]:
        self._ensure_symbols()
        return self._classes

    def functions_named(self, name: str) -> List[FunctionInfo]:
        self._ensure_symbols()
        return [
            self._functions[q] for q in self._functions_by_name.get(name, [])
        ]

    def record_for(self, path: str) -> Optional[FileRecord]:
        return self.records.get(os.path.normpath(path))

    def module_for(self, dotted: str) -> Optional[str]:
        """Resolve a dotted module reference to an indexed module id.

        Matches on suffix: ``repro.core.writer`` finds the record whose
        path-derived id ends with that suffix (unique match required).
        """
        self._ensure_symbols()
        if dotted in self._module_paths:
            return dotted
        hits = [
            module
            for module in self._module_paths
            if module.endswith("." + dotted)
        ]
        if len(hits) == 1:
            return hits[0]
        return None

    def resolve_class(
        self, name: str, module: str
    ) -> Optional[ClassInfo]:
        """A class by simple or dotted name, as seen from ``module``."""
        self._ensure_symbols()
        if "." in name:
            # Dotted: try an import alias for the head, else a suffix match.
            head, _, rest = name.partition(".")
            imports = self._imports.get(module, {})
            target = imports.get(head)
            if target is not None:
                return self.resolve_class_qual(f"{target}.{rest}")
            return self.resolve_class_qual(name)
        own = self._classes.get(f"{module}.{name}")
        if own is not None:
            return own
        imports = self._imports.get(module, {})
        target = imports.get(name)
        if target is not None:
            resolved = self.resolve_class_qual(target)
            if resolved is not None:
                return resolved
        hits = self._classes_by_name.get(name, [])
        if len(hits) == 1:
            return self._classes[hits[0]]
        return None

    def resolve_class_qual(self, dotted: str) -> Optional[ClassInfo]:
        """A class from a dotted ``module...Class`` reference."""
        self._ensure_symbols()
        if dotted in self._classes:
            return self._classes[dotted]
        head, _, cls_name = dotted.rpartition(".")
        if not head:
            return None
        module = self.module_for(head)
        if module is not None:
            return self._classes.get(f"{module}.{cls_name}")
        return None

    def method_on(
        self, cinfo: ClassInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cinfo`` and its project-local bases."""
        self._ensure_symbols()
        seen = _seen if _seen is not None else set()
        if cinfo.qualname in seen:
            return None
        seen.add(cinfo.qualname)
        qual = cinfo.methods.get(name)
        if qual is not None:
            return self._functions.get(qual)
        for base in cinfo.bases:
            base_info = self.resolve_class(base, cinfo.module)
            if base_info is not None:
                found = self.method_on(base_info, name, seen)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # lightweight type inference

    def local_types(self, func: FunctionInfo) -> Dict[str, str]:
        """name -> class qualname for locals/params with inferable types."""
        env: Dict[str, str] = {}
        args = getattr(func.node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if arg.annotation is None:
                    continue
                cls = self._annotation_class(arg.annotation, func.module)
                if cls is not None:
                    env[arg.arg] = cls.qualname
        for stmt in ast.walk(func.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    resolved = self.expr_class_qual(stmt.value, func, env)
                    if resolved is not None:
                        env.setdefault(target.id, resolved)
        return env

    def _annotation_class(
        self, annotation: ast.expr, module: str
    ) -> Optional[ClassInfo]:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return self.resolve_class(annotation.value, module)
        if isinstance(annotation, ast.Subscript):
            # Optional[X] / "Optional[X]" style: unwrap one level.
            return self._annotation_class(annotation.slice, module)
        if isinstance(annotation, ast.Name):
            return self.resolve_class(annotation.id, module)
        if isinstance(annotation, ast.Attribute):
            dotted = _dotted(annotation)
            if dotted:
                return self.resolve_class(dotted, module)
        return None

    def expr_class_qual(
        self, expr: ast.expr, func: FunctionInfo, env: Dict[str, str]
    ) -> Optional[str]:
        """Class qualname the expression evaluates to, if inferable."""
        if isinstance(expr, ast.Call):
            callee = expr.func
            if isinstance(callee, ast.Name):
                cls = self.resolve_class(callee.id, func.module)
                if cls is None and callee.id == "bytearray":
                    return BYTEARRAY
                return cls.qualname if cls else None
            if isinstance(callee, ast.Attribute):
                dotted = _dotted(callee)
                if dotted:
                    cls = self.resolve_class(dotted, func.module)
                    return cls.qualname if cls else None
            return None
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.infer_type(expr.value, func, env)
            if owner is not None:
                return owner.attr_types.get(expr.attr)
        return None

    def infer_type(
        self,
        expr: ast.expr,
        func: FunctionInfo,
        env: Optional[Dict[str, str]] = None,
    ) -> Optional[ClassInfo]:
        """Best-effort class of ``expr`` inside ``func``."""
        self._ensure_symbols()
        if env is None:
            env = self.local_types(func)
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and func.cls is not None:
                return self._classes.get(func.cls)
            qual = env.get(expr.id)
            return self._classes.get(qual) if qual else None
        if isinstance(expr, ast.Attribute):
            owner = self.infer_type(expr.value, func, env)
            if owner is None:
                return None
            qual = owner.attr_types.get(expr.attr)
            return self._classes.get(qual) if qual else None
        if isinstance(expr, ast.Call):
            qual = self.expr_class_qual(expr, func, env)
            return self._classes.get(qual) if qual else None
        return None


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """local name -> dotted target for module-level imports."""
    imports: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                imports[alias.asname or alias.name] = (
                    f"{stmt.module}.{alias.name}"
                )
    return imports


def _base_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return _dotted(expr)
    return None


def _dotted(expr: ast.expr) -> Optional[str]:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
