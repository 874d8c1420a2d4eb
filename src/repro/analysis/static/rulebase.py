"""Rule framework: file context, rule base class, and the registry."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, List, Type

from repro.analysis.static.diagnostics import Diagnostic, Severity
from repro.errors import ConfigError


@dataclass
class FileContext:
    """Everything a rule needs to analyse one source file.

    ``project_mode`` tells a rule that the whole-program pass is also
    running: PC004 uses it to defer its "commit write must be followed
    by a fence in this function" half to the interprocedural PC010,
    which understands fences placed in callers.
    """

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    project_mode: bool = False

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


class Rule:
    """Base class for one lint rule (PC001, PC002, ...).

    Subclasses set ``rule_id`` and ``title`` and implement
    :meth:`check`, yielding diagnostics anchored to AST nodes via
    :meth:`report`.  Registration happens through :func:`register`.
    """

    rule_id: ClassVar[str] = ""
    title: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def report(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        """Build a diagnostic pointing at ``node``."""
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
            severity=severity,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (PC009, PC010, ...).

    Project rules run once per lint invocation against the shared
    :class:`~repro.analysis.static.projectindex.ProjectIndex` instead
    of once per file; :meth:`check` is a no-op by default so a project
    rule mixed into a per-file run contributes nothing.  A rule with
    both a syntactic and an index-backed half (PC008) overrides both.
    """

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        return []

    def check_project(self, index) -> Iterable[Diagnostic]:
        """Yield findings over the whole indexed project."""
        raise NotImplementedError

    def report_at(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        """Build a diagnostic anchored at an explicit position."""
        return Diagnostic(
            path=path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
            severity=severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ConfigError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    # Importing the rules package populates the registry on first use.
    import repro.analysis.static.rules  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def all_project_rules() -> List[ProjectRule]:
    """Fresh instances of the whole-program rules only."""
    return [r for r in all_rules() if isinstance(r, ProjectRule)]


def rule_ids() -> List[str]:
    """Sorted ids of every registered rule."""
    import repro.analysis.static.rules  # noqa: F401

    return sorted(_REGISTRY)
