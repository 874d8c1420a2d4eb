"""pccheck-lint: a concurrency-invariant static analyzer for this repo.

The checkpoint engine's correctness argument (Listing 1, §4.1) rests on
discipline that ordinary tests cannot guard: no blocking work while a
lock is held, lock-protected state never mutated outside its lock,
every ``begin()`` ticket resolved by ``commit()``/``abort()``, commit
records fenced before they can be trusted, engine errors never
swallowed, and no magic-number backoffs.  ``pccheck-lint`` encodes each
of those as an AST rule (PC001–PC008) so a future PR that silently
regresses lock or fence discipline fails CI instead of failing a
recovery two weeks later.

On top of the per-file rules, the default *project mode* parses the
whole tree once into a shared :class:`ProjectIndex` (symbol table,
call graph, per-function CFGs) and runs three whole-program rules:
PC009 lock-order cycle detection, PC010 interprocedural fence
coverage for commit-record writes (fences in callers and in callees
that always fence count), and PC011 zero-copy view escape analysis.
Project runs are incremental (content-hash cache, ``--cache FILE``),
support a checked-in finding baseline (``--baseline`` /
``--write-baseline``), and can emit SARIF for code-scanning UIs.

Entry points::

    python -m repro.cli lint src/          # via the main CLI
    pccheck-lint src/                      # console script
    make lint

Diagnostics can be silenced per line with ``# pclint: disable=PC001``
(or ``# pclint: disable`` for all rules) on the offending line or on a
standalone comment line directly above it; a whole file opts out with
``# pclint: skip-file``.
"""

from repro.analysis.static.diagnostics import Diagnostic, Severity
from repro.analysis.static.projectindex import ProjectIndex
from repro.analysis.static.rulebase import (
    FileContext,
    ProjectRule,
    Rule,
    all_rules,
)
from repro.analysis.static.runner import (
    lint_paths,
    lint_source,
    main,
    run_lint,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "FileContext",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "main",
    "run_lint",
]
