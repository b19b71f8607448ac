"""Listener teardown (SHR403): a callback registered with no way to detach it.

A class that registers a callback on another object with
``add_*_listener(...)`` must call the matching ``remove_*_listener``
somewhere in the class, usually in a ``close()`` teardown.  Otherwise the
object it registered on holds the callback, and through it the whole
registering instance, for as long as that object lives, and keeps
invoking it.  This rule caught ``OverlayNetwork`` subscribing to every
node's liveness changes with no way to unsubscribe; its ``close()`` is
the fix.

The code keeps its number from the retired shard-safety family, whose
other three rules guarded state that only a simulator sharded across
workers would have broken; that design is retired.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.context import AnalysisContext, ClassInfo, ModuleInfo
from repro.analysis.violations import Violation


def _is_runtime_module(module: str) -> bool:
    """A module of a runtime package: ``repro.<package>``, not the linter."""
    parts = module.split(".")
    return len(parts) >= 2 and parts[0] == "repro" and parts[1] != "analysis"


def _unmatched_registrations(info: ModuleInfo, cls: ClassInfo) -> List[Violation]:
    registered: List[ast.Call] = []
    removed: Set[str] = set()
    for method in cls.methods.values():
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            attr = node.func.attr
            receiver = node.func.value
            is_self = isinstance(receiver, ast.Name) and receiver.id == "self"
            if attr.startswith("add_") and attr.endswith("_listener") and not is_self:
                registered.append(node)
            elif attr.startswith("remove_") and attr.endswith("_listener"):
                removed.add(attr[len("remove_") : -len("_listener")])
    violations = []
    for call in registered:
        func = call.func
        assert isinstance(func, ast.Attribute)
        kind = func.attr[len("add_") : -len("_listener")]
        if kind in removed:
            continue
        violations.append(
            Violation(
                info.path,
                call.lineno,
                call.col_offset + 1,
                "SHR403",
                f"{cls.name} registers an {func.attr}() callback but never "
                f"calls remove_{kind}_listener — the object it registers on "
                "keeps this instance alive; add a close() teardown",
            )
        )
    return violations


def check_listener_teardown(context: AnalysisContext) -> List[Violation]:
    """All SHR403 violations for one whole-program context."""
    violations: List[Violation] = []
    for info in context.modules.values():
        if not _is_runtime_module(info.module):
            continue
        for cls in info.classes.values():
            violations.extend(_unmatched_registrations(info, cls))
    return violations
