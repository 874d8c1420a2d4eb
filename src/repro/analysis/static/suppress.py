"""Suppression comments: ``# pclint: disable=PC001`` and friends.

Two scopes are supported:

* a trailing comment on the flagged line, or a standalone comment on
  the line directly above it, silences the listed rules (or all rules
  when no ``=RULES`` part is given) for that line;
* ``# pclint: skip-file`` anywhere in the file opts the whole file out.

Multi-rule directives (``# pclint: disable=PC001,PC009``) silence each
listed rule.  Project-mode findings (PC009–PC011) are suppressed at
their *anchor* line — for an interprocedural finding that is the call
site or acquisition site the diagnostic points at, so the comment sits
next to the code being excused.

Suppressions are parsed from the token stream, not with regexes over
raw lines, so string literals containing ``pclint:`` never trigger.

Every directive tracks whether it matched a finding, split by phase:
``used_file`` is frozen into the incremental cache alongside the
per-file diagnostics, while ``used_project`` is recomputed on every
run (cross-file findings can appear or vanish when *other* files
change).  ``--warn-unused-suppressions`` reports directives that
matched nothing in either phase.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.static.diagnostics import Diagnostic

_DIRECTIVE = re.compile(
    r"#\s*pclint:\s*(?P<verb>disable|skip-file)\s*(?:=\s*(?P<rules>[A-Z0-9_,\s]+))?"
)

#: Marker meaning "every rule" (a bare ``disable`` with no rule list).
ALL_RULES: FrozenSet[str] = frozenset({"*"})


@dataclass
class Directive:
    """One ``# pclint: disable`` comment and the lines it covers."""

    line: int  # line the comment sits on (anchor for unused reports)
    lines: Tuple[int, ...]  # source lines the directive silences
    rules: FrozenSet[str]  # rule ids, or {"*"} for everything
    used_file: bool = False  # matched a per-file finding (cached)
    used_project: bool = False  # matched a project finding (per run)

    def covers(self, diagnostic: Diagnostic) -> bool:
        if diagnostic.line not in self.lines:
            return False
        return "*" in self.rules or diagnostic.rule_id in self.rules

    @property
    def used(self) -> bool:
        return self.used_file or self.used_project


@dataclass
class SuppressionIndex:
    """Per-line map of suppressed rule ids for one source file."""

    skip_file: bool = False
    directives: List[Directive] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        """Scan ``source`` for pclint directives."""
        index = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return index
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            rules = _parse_directive(token.string)
            if rules is None:
                continue
            if rules == frozenset({"skip-file"}):
                index.skip_file = True
                continue
            line = token.start[0]
            lines = [line]
            # A comment that is the whole line covers the next line too,
            # so multi-line statements can carry a justification above.
            if token.line.strip().startswith("#"):
                lines.append(line + 1)
            index.directives.append(
                Directive(line=line, lines=tuple(lines), rules=rules)
            )
        return index

    def is_suppressed(self, diagnostic: Diagnostic, project: bool = False) -> bool:
        """True when ``diagnostic`` is silenced; marks directives used.

        ``project`` selects which usage flag the match sets — project
        usage is transient per run (see :meth:`reset_project_uses`),
        per-file usage is frozen into the incremental cache.
        """
        if self.skip_file:
            return True
        hit = False
        for directive in self.directives:
            if directive.covers(diagnostic):
                hit = True
                if project:
                    directive.used_project = True
                else:
                    directive.used_file = True
        return hit

    def reset_project_uses(self) -> None:
        """Forget project-phase usage before a fresh project pass."""
        for directive in self.directives:
            directive.used_project = False

    def unused_directives(self) -> List[Directive]:
        """Directives that silenced nothing (stale suppressions)."""
        return [d for d in self.directives if not d.used]


def _parse_directive(comment: str) -> Optional[FrozenSet[str]]:
    match = _DIRECTIVE.search(comment)
    if match is None:
        return None
    if match.group("verb") == "skip-file":
        return frozenset({"skip-file"})
    raw = match.group("rules")
    if not raw:
        return ALL_RULES
    rules = frozenset(part.strip() for part in raw.split(",") if part.strip())
    return rules or ALL_RULES
