"""The ``repro-lint`` command line (also ``python -m repro.analysis``).

Usage::

    repro-lint                      # lint src/repro with src/ as the root
    repro-lint path/to/file.py      # lint specific files/directories
    repro-lint --format json        # machine-readable report
    repro-lint --format github      # GitHub inline annotations
    repro-lint --list-rules         # print the rule catalog
    repro-lint --layers             # print the declared layer DAG
    repro-lint --seed-table         # print the seed-slot registry table

Exit status is 0 when clean, 1 on violations, 2 on usage errors or a
crashed rule pass — so ``make lint`` and CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.layering import (
    TOOL_PACKAGES,
    UNIVERSAL_PACKAGES,
    declared_dag_rows,
)
from repro.analysis.rules import rule_catalog
from repro.analysis.seeds import slot_table_markdown, validate_registry


def _default_paths() -> Tuple[List[str], Optional[str]]:
    """(paths, src_root) for a bare invocation from the repo checkout."""
    for candidate in ("src", os.path.join("..", "src")):
        target = os.path.join(candidate, "repro")
        if os.path.isdir(target):
            return [target], candidate
    return ["."], None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Determinism, layering, recorder-discipline, RNG-provenance, "
            "listener-teardown, and hot-path-budget linter for the repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--src-root",
        default=None,
        help=(
            "directory module names are computed against (default: src when "
            "linting the default tree); layering, provenance, and hot-path "
            "rules need it"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "violation output: text (default, path:line:col: CODE), json "
            "(one machine-readable document), github (workflow-command "
            "annotations for inline PR review)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    parser.add_argument(
        "--layers", action="store_true", help="print the declared layer DAG"
    )
    parser.add_argument(
        "--seed-table",
        action="store_true",
        help="print the seed-slot registry as the DEVELOPMENT.md table",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (violations still print)",
    )
    return parser


def _report(result: LintResult, output_format: str, quiet: bool) -> None:
    if output_format == "json":
        print(result.formatted_json())
        return
    if output_format == "github":
        if result.violations:
            print(result.formatted_github())
        for error in result.internal_errors:
            print(f"::error title=repro-lint internal error::{error}")
        return
    if result.violations:
        print(result.formatted())
    for error in result.internal_errors:
        print(f"repro-lint: internal error: {error}", file=sys.stderr)
    if not quiet:
        noun = "file" if result.files_checked == 1 else "files"
        if result.ok:
            print(f"repro-lint: {result.files_checked} {noun} clean")
        else:
            count = len(result.violations)
            vnoun = "violation" if count == 1 else "violations"
            print(
                f"repro-lint: {count} {vnoun} in {result.files_checked} {noun}",
                file=sys.stderr,
            )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # ``repro-lint --list-rules | head`` closes stdout early; swap in
        # devnull so the interpreter's exit-time flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(rule_catalog())
        return 0
    if args.layers:
        for rank, package in declared_dag_rows():
            print(f"{rank}  {package}")
        print(f"*  {', '.join(sorted(UNIVERSAL_PACKAGES))} (importable by all, imports none)")
        print(f"*  {', '.join(sorted(TOOL_PACKAGES))} (build tooling, no runtime imports)")
        return 0
    if args.seed_table:
        errors = validate_registry()
        if errors:
            for error in errors:
                print(f"repro-lint: seed registry: {error}", file=sys.stderr)
            return 2
        print(slot_table_markdown())
        return 0

    paths = args.paths
    src_root = args.src_root
    if not paths:
        paths, src_root = _default_paths()
        if args.src_root is not None:
            src_root = args.src_root
    result = lint_paths(paths, src_root=src_root)
    _report(result, args.format, args.quiet)
    if result.internal_errors:
        return 2
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
