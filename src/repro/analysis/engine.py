"""File walking, the analysis context, rule dispatch, suppression filtering.

:func:`lint_paths` is the single entry point both the CLI and the
self-tests use.  Given files and/or directories it:

1. collects ``*.py`` files (sorted, so output order is deterministic —
   the linter holds itself to its own rules);
2. parses each file once into a :class:`~repro.analysis.context.ModuleInfo`
   and runs the per-file rule families (determinism, recorder
   discipline);
3. assembles the parsed modules into one
   :class:`~repro.analysis.context.AnalysisContext` and runs the
   whole-program families: layering, RNG provenance (DET15x), listener
   teardown (SHR403), hot-path budgets (HOT5xx);
4. filters everything through ``# repro-lint: disable=...`` line
   suppressions, and reports each suppression code that names no rule
   (PAR002) — a misspelt or retired code silences nothing.

Module names matter: the wall-clock allowlist, hot-path matching, the
layer DAG, and the seed registry are all keyed on ``repro.<package>...``
names, so a file outside ``src_root`` (or with no ``src_root`` given)
gets only the location-independent determinism checks.

A rule pass that *crashes* is reported, not swallowed: the exception is
recorded on :attr:`LintResult.internal_errors` and the CLI exits 2, so
CI can never mistake a broken linter for a clean tree.
"""

from __future__ import annotations

import ast
import json
import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.analysis.context import AnalysisContext, ModuleInfo
from repro.analysis.determinism import check_determinism
from repro.analysis.hotpath import check_hot_paths
from repro.analysis.layering import ImportEdge, check_layering, collect_import_edges
from repro.analysis.listeners import check_listener_teardown
from repro.analysis.recorder_discipline import check_recorder_discipline
from repro.analysis.rngflow import check_rngflow
from repro.analysis.rules import ALL_RULES
from repro.analysis.seeds import REGISTRY, SeedSlot
from repro.analysis.violations import (
    SUPPRESS_ALL,
    Violation,
    apply_suppressions,
    parse_suppressions,
)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: rule passes that crashed ("family: exception"); non-empty means
    #: the run is unreliable and the CLI exits 2
    internal_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.internal_errors

    def formatted(self) -> str:
        return "\n".join(v.format() for v in sorted(self.violations))

    def formatted_json(self) -> str:
        """Machine-readable report (``--format json``)."""
        return json.dumps(
            {
                "clean": self.ok,
                "files_checked": self.files_checked,
                "violations": [
                    {
                        "path": v.path,
                        "line": v.line,
                        "col": v.col,
                        "code": v.code,
                        "message": v.message,
                    }
                    for v in sorted(self.violations)
                ],
                "internal_errors": list(self.internal_errors),
            },
            indent=2,
        )

    def formatted_github(self) -> str:
        """GitHub workflow-command annotations (``--format github``)."""
        return "\n".join(
            f"::error file={v.path},line={v.line},col={v.col},"
            f"title={v.code}::{v.message}"
            for v in sorted(self.violations)
        )


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in filenames:
                    if filename.endswith(".py"):
                        found.add(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            found.add(path)
    return sorted(found)


def module_name(path: str, src_root: Optional[str]) -> Optional[str]:
    """Dotted module for ``path`` relative to ``src_root``, or None."""
    if src_root is None:
        return None
    relative = os.path.relpath(os.path.abspath(path), os.path.abspath(src_root))
    if relative.startswith(".."):
        return None
    parts = relative.split(os.sep)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if not parts or any(not part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


def check_suppression_codes(
    path: str, suppressions: Dict[int, FrozenSet[str]]
) -> List[Violation]:
    """PAR002 at each anchored line whose suppression names a code that is
    neither a rule in :data:`ALL_RULES` nor ``all``."""
    return [
        Violation(path, line, 1, "PAR002", f"suppression names no rule: {code}")
        for line, codes in sorted(suppressions.items())
        for code in sorted(codes.difference(ALL_RULES, (SUPPRESS_ALL,)))
    ]


def lint_paths(
    paths: Iterable[str],
    src_root: Optional[str] = None,
    seed_registry: Optional[Sequence[SeedSlot]] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths``; see the module docstring.

    ``seed_registry`` overrides the shipped seed-slot registry for the
    RNG-provenance pass — the fixture tests declare slots for fixture
    modules this way; production runs use the default.
    """
    result = LintResult()
    modules: List[ModuleInfo] = []
    suppressions_by_path: Dict[str, Dict[int, FrozenSet[str]]] = {}
    edges: List[ImportEdge] = []

    def run_family(family: str, check: Callable[[], List[Violation]]) -> List[Violation]:
        try:
            return check()
        except Exception:
            result.internal_errors.append(
                f"{family} crashed: {traceback.format_exc(limit=3).strip()}"
            )
            return []

    for path in iter_python_files(list(paths)):
        result.files_checked += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (SyntaxError, ValueError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            result.violations.append(
                Violation(path, line, 1, "PAR001", f"does not parse: {error}")
            )
            continue
        module = module_name(path, src_root)
        suppressions = parse_suppressions(source)
        suppressions_by_path[path] = suppressions
        result.violations.extend(check_suppression_codes(path, suppressions))
        file_violations = run_family(
            "determinism", lambda: check_determinism(path, tree, module)
        )
        file_violations += run_family(
            "recorder-discipline",
            lambda: check_recorder_discipline(path, tree, module),
        )
        if module is not None:
            edges.extend(collect_import_edges(path, tree, module))
            modules.append(
                ModuleInfo(
                    path=path,
                    module=module,
                    tree=tree,
                    source=source,
                    suppressions=suppressions,
                )
            )
        result.violations.extend(
            apply_suppressions(file_violations, suppressions)
        )

    # -- whole-program passes over the shared context ------------------------

    program: List[Violation] = []
    program += run_family("layering", lambda: check_layering(edges))
    if modules:
        context = AnalysisContext(modules)
        registry = tuple(seed_registry) if seed_registry is not None else REGISTRY
        program += run_family(
            "rng-provenance", lambda: check_rngflow(context, registry)
        )
        program += run_family(
            "listener-teardown", lambda: check_listener_teardown(context)
        )
        program += run_family("hot-path", lambda: check_hot_paths(context))

    by_path: Dict[str, List[Violation]] = {}
    for violation in program:
        by_path.setdefault(violation.path, []).append(violation)
    for path, group in by_path.items():
        suppressions = suppressions_by_path.get(path)
        if suppressions is None:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    suppressions = parse_suppressions(handle.read())
            except OSError:
                suppressions = {}
        result.violations.extend(apply_suppressions(group, suppressions))

    result.violations.sort()
    return result
