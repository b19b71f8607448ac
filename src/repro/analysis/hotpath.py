"""Hot-path budget rules: marked inner loops stay inside their O(...).

``@hot_path(budget="O(P × k)")`` (``repro.observability.hotpath``)
attaches DEVELOPMENT.md's complexity-budget table to the functions that
implement it.  This pass walks every marked function *and* its
statically-resolved callees (through the shared
:class:`~repro.analysis.context.AnalysisContext` call graph) and flags
O(N)-shaped work — the patterns PR 7 identified as what the 100k push
keeps re-introducing.

==========  =============================================================
code        what it flags
==========  =============================================================
``HOT501``  an O(N) materialisation — ``list``/``tuple``/``sorted`` over
            a node-indexed iterable (``.items()``/``.keys()``/
            ``.values()``, ``range(len(...))``, or a network/nodes/links
            value) inside a budgeted function.
``HOT502``  a dense square allocation — ``np.zeros((n, n))`` and friends
            with two identical dimensions: O(N²) resident memory, the
            eager-router bug class.
``HOT503``  a full scan of an instance map (``for ... in self.x.items()``)
            inside a budgeted function — bounded caches are fine, say so
            in a suppression; node-keyed maps are not.
``HOT504``  f-string construction outside a recorder guard and outside
            ``raise`` — per-call allocation the disabled-trace overhead
            budget does not cover.
``HOT505``  ``print``/``logging`` calls on the hot path (unguarded).
``HOT506``  marker problems: a function DEVELOPMENT.md's table names
            (compose wavefront, pruned scoring gather, churn routing-graph
            rebuilds) missing its ``@hot_path`` marker, or a marker whose
            budget is not an ``O(...)`` string.
==========  =============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.context import AnalysisContext, ClassInfo, ModuleInfo
from repro.analysis.violations import Violation

#: functions the complexity-budget table names: they must carry the
#: marker so the table stays mechanically enforced
REQUIRED_HOT_PATHS: Dict[Tuple[str, str], str] = {
    ("repro.core.prober", "ProbingComposer.compose"): "the compose wavefront",
    ("repro.core.fastscore", "FastScorer.score_level"): (
        "the pruned scoring gather"
    ),
    ("repro.topology.routing", "OverlayRouter.set_down_nodes"): (
        "the node-churn routing-graph rebuild"
    ),
    ("repro.topology.routing", "OverlayRouter.set_down_links"): (
        "the link-churn routing-graph rebuild"
    ),
}

_MATERIALIZERS = frozenset({"list", "tuple", "sorted"})
_MAP_SCANS = frozenset({"items", "keys", "values"})
_DENSE_ALLOCATORS = frozenset({"zeros", "empty", "ones", "full"})
#: terminal identifiers that proxy for "all N nodes / L links"
_N_PROXIES = frozenset(
    {"network", "nodes", "links", "members", "node_ids", "link_ids", "overlay"}
)
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
_LOGGER_NAMES = frozenset({"logging", "logger", "log"})


def _decorator_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _hot_path_budget(
    function: ast.FunctionDef,
) -> Tuple[bool, Optional[str], Optional[ast.expr]]:
    """(is_marked, budget_or_None, decorator_node) for one function."""
    for decorator in function.decorator_list:
        if isinstance(decorator, ast.Call):
            if _decorator_name(decorator.func) != "hot_path":
                continue
            for keyword in decorator.keywords:
                if keyword.arg == "budget":
                    value = keyword.value
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, str
                    ):
                        return True, value.value, decorator
                    return True, None, decorator
            if decorator.args:
                value = decorator.args[0]
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return True, value.value, decorator
            return True, None, decorator
        if _decorator_name(decorator) == "hot_path":
            return True, None, decorator
    return False, None, None


class _HotFunction:
    """One function the budget applies to (marked, or reached from one)."""

    __slots__ = ("info", "node", "qualname", "cls", "root", "budget")

    def __init__(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef,
        qualname: str,
        cls: Optional[ClassInfo],
        root: str,
        budget: str,
    ) -> None:
        self.info = info
        self.node = node
        self.qualname = qualname
        self.cls = cls
        self.root = root      # "module.Qualname" of the marked ancestor
        self.budget = budget


class HotPathChecker:
    """Runs HOT501–HOT506 over the whole program."""

    def __init__(self, context: AnalysisContext) -> None:
        self.context = context
        self.violations: List[Violation] = []

    def run(self) -> List[Violation]:
        marked = self._collect_marked()
        for hot in self._closure(marked):
            self._check_function(hot)
        return self.violations

    def _emit(
        self, info: ModuleInfo, node: ast.AST, code: str, message: str
    ) -> None:
        self.violations.append(
            Violation(
                info.path, node.lineno, node.col_offset + 1, code, message
            )
        )

    # -- marker discovery (HOT506) ------------------------------------------

    def _collect_marked(self) -> List[_HotFunction]:
        marked: List[_HotFunction] = []
        for info in self.context.modules.values():
            candidates: List[Tuple[str, Optional[ClassInfo], ast.FunctionDef]] = [
                (name, None, node) for name, node in info.functions.items()
            ]
            for cls in info.classes.values():
                candidates.extend(
                    (f"{cls.name}.{name}", cls, node)
                    for name, node in cls.methods.items()
                )
            for qualname, cls, node in candidates:
                is_marked, budget, _decorator = _hot_path_budget(node)
                required = REQUIRED_HOT_PATHS.get((info.module, qualname))
                if not is_marked:
                    if required is not None:
                        self._emit(
                            info,
                            node,
                            "HOT506",
                            f"{qualname} is {required} — the complexity-"
                            "budget table requires an @hot_path(budget=...) "
                            "marker here",
                        )
                    continue
                if budget is None or "O(" not in budget:
                    self._emit(
                        info,
                        node,
                        "HOT506",
                        f"@hot_path on {qualname} needs budget=\"O(...)\" "
                        "in the vocabulary of DEVELOPMENT.md's complexity-"
                        "budget table",
                    )
                    budget = budget or "O(?)"
                marked.append(
                    _HotFunction(
                        info,
                        node,
                        qualname,
                        cls,
                        f"{info.module}.{qualname}",
                        budget,
                    )
                )
        return marked

    # -- callee closure ------------------------------------------------------

    def _closure(self, marked: List[_HotFunction]) -> List[_HotFunction]:
        out: List[_HotFunction] = []
        visited: Set[Tuple[str, str]] = set()
        queue = list(marked)
        while queue:
            hot = queue.pop(0)
            key = (hot.info.module, hot.qualname)
            if key in visited:
                continue
            visited.add(key)
            out.append(hot)
            param_classes = self.context.param_classes_for(hot.info, hot.node)
            for node in ast.walk(hot.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = self.context.resolve_call(
                    hot.info, node, hot.cls, param_classes
                )
                if resolved is None:
                    continue
                target_module, qualname, target = resolved
                info = self.context.modules.get(target_module)
                if info is None or (target_module, qualname) in visited:
                    continue
                cls_name = qualname.split(".")[0] if "." in qualname else None
                cls = info.classes.get(cls_name) if cls_name else None
                queue.append(
                    _HotFunction(
                        info, target, qualname, cls, hot.root, hot.budget
                    )
                )
        return out

    # -- per-function checks -------------------------------------------------

    def _check_function(self, hot: _HotFunction) -> None:
        parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(hot.node):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        where = f"inside @hot_path {hot.root} (budget {hot.budget})"
        for node in ast.walk(hot.node):
            if isinstance(node, ast.Call):
                self._check_call(hot, node, parents, where)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_map_scan(hot, node.iter, where)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    self._check_map_scan(hot, generator.iter, where)
            elif isinstance(node, ast.JoinedStr) and node.values:
                if not _inside(node, parents, (ast.Raise, ast.Assert)) and not (
                    _recorder_guarded(node, parents)
                ):
                    self._emit(
                        hot.info,
                        node,
                        "HOT504",
                        f"f-string allocation {where} — move it behind a "
                        "recorder `.enabled` guard or off the hot path",
                    )

    def _check_call(
        self,
        hot: _HotFunction,
        call: ast.Call,
        parents: Dict[int, ast.AST],
        where: str,
    ) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            if (
                func.id in _MATERIALIZERS
                and call.args
                and _is_n_shaped(call.args[0])
            ):
                self._emit(
                    hot.info,
                    call,
                    "HOT501",
                    f"{func.id}(...) materialises an O(N)-shaped iterable "
                    f"{where} — stream it, bound it, or justify the size",
                )
            elif func.id == "print" and not _recorder_guarded(call, parents):
                self._emit(
                    hot.info,
                    call,
                    "HOT505",
                    f"print() {where} — use the recorder behind an "
                    "`.enabled` guard",
                )
        elif isinstance(func, ast.Attribute):
            if func.attr in _DENSE_ALLOCATORS and call.args:
                shape = call.args[0]
                if isinstance(shape, ast.Tuple) and len(shape.elts) >= 2:
                    dims = [ast.dump(element) for element in shape.elts]
                    if len(set(dims)) < len(dims):
                        self._emit(
                            hot.info,
                            call,
                            "HOT502",
                            f"dense square allocation .{func.attr}((n, n)) "
                            f"{where} — O(N²) resident memory, the "
                            "eager-router bug class",
                        )
            elif (
                func.attr in _LOG_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in _LOGGER_NAMES
                and not _recorder_guarded(call, parents)
            ):
                self._emit(
                    hot.info,
                    call,
                    "HOT505",
                    f"logging call {where} — use the recorder behind an "
                    "`.enabled` guard",
                )

    def _check_map_scan(
        self, hot: _HotFunction, iterable: ast.expr, where: str
    ) -> None:
        if not (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in _MAP_SCANS
        ):
            return
        receiver = iterable.func.value
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            self._emit(
                hot.info,
                iterable,
                "HOT503",
                f"full .{iterable.func.attr}() scan of self.{receiver.attr} "
                f"{where} — bounded caches justify with a suppression; "
                "node-keyed maps move off the hot path",
            )


def _inside(
    node: ast.AST, parents: Dict[int, ast.AST], kinds: Tuple[type, ...]
) -> bool:
    current: Optional[ast.AST] = parents.get(id(node))
    while current is not None:
        if isinstance(current, kinds):
            return True
        current = parents.get(id(current))
    return False


def _recorder_guarded(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """Inside an ``if`` whose test reads ``.enabled`` (or an ``observing``
    style alias containing 'enabled'/'observing'/'tracing')."""
    current: Optional[ast.AST] = parents.get(id(node))
    while current is not None:
        if isinstance(current, ast.If):
            for child in ast.walk(current.test):
                if isinstance(child, ast.Attribute) and child.attr == "enabled":
                    return True
                if isinstance(child, ast.Name) and (
                    "enabled" in child.id
                    or "observing" in child.id
                    or "tracing" in child.id
                ):
                    return True
        current = parents.get(id(current))
    return False


def _is_n_shaped(node: ast.expr) -> bool:
    """Syntactically looks like "all nodes/links of the network"."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MAP_SCANS:
            return True
        if (
            isinstance(func, ast.Name)
            and func.id == "range"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "len"
        ):
            return True
        return False
    terminal: Optional[str] = None
    if isinstance(node, ast.Name):
        terminal = node.id
    elif isinstance(node, ast.Attribute):
        terminal = node.attr
    return terminal is not None and terminal.lower() in _N_PROXIES


def check_hot_paths(context: AnalysisContext) -> List[Violation]:
    """All HOT5xx violations for one whole-program context."""
    return HotPathChecker(context).run()
