"""Whole-program analysis context: every module parsed once, plus a
call-graph resolver.

PR 4's engine ran each rule family over one file at a time; the
dataflow rule families (RNG provenance, listener teardown, hot-path budgets)
need to see *across* files — which module a call lands in, what class a
parameter annotation names, which methods a class defines.
:class:`AnalysisContext` is that shared view:

* :attr:`AnalysisContext.modules` — dotted name → :class:`ModuleInfo`
  (path, AST, source, parsed suppressions), built once per lint run;
* per-module import maps (local name → fully-qualified target);
* a function/class table (``module``, ``qualname`` → AST node), with
  per-class method tables and single-level base resolution;
* :meth:`AnalysisContext.resolve_call` — the shared static call
  resolver the provenance and budget passes walk.

Resolution is deliberately conservative: a call that cannot be resolved
statically (a method on an arbitrary object, a callable passed as a
value) resolves to ``None`` and the rule passes skip it.  False
negatives are acceptable here; false positives cost suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple


@dataclass
class ClassInfo:
    """One class definition: methods, bases, and attribute types."""

    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: base-class names as written (resolved lazily through imports)
    bases: List[str] = field(default_factory=list)
    #: ``self.<attr> = ClassName(...)`` assignments seen in any method
    attribute_classes: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file and its per-file derived tables."""

    path: str
    module: str
    tree: ast.Module
    source: str
    suppressions: Dict[int, FrozenSet[str]]
    #: local name → fully-qualified import target ("random", "repro.x.y",
    #: "repro.x.y.Class") for both ``import`` and ``from`` forms
    imports: Dict[str, str] = field(default_factory=dict)
    #: top-level functions by name
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: top-level classes by name
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def build_tables(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._record_import(node)
            elif isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = _build_class(self.module, node)
            elif isinstance(node, ast.If):
                # imports under ``if TYPE_CHECKING:`` still resolve names
                for child in node.body:
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        self._record_import(child)

    def _record_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self.imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = f"{node.module}.{alias.name}"


def _build_class(module: str, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(module=module, name=node.name, node=node)
    for base in node.bases:
        if isinstance(base, ast.Name):
            info.bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            info.bases.append(base.attr)
    for child in node.body:
        if isinstance(child, ast.FunctionDef):
            info.methods[child.name] = child
            for stmt in ast.walk(child):
                if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Call
                ):
                    callee = stmt.value.func
                    if isinstance(callee, ast.Name):
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                info.attribute_classes[target.attr] = callee.id
    return info


#: a resolved call target: the defining module, its qualified name
#: ("func" or "Class.method"), and the function node itself
ResolvedCall = Tuple[str, str, ast.FunctionDef]


class AnalysisContext:
    """All modules of one lint run, with shared resolution helpers."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for info in modules:
            info.build_tables()
            self.modules[info.module] = info

    # -- class / import resolution ------------------------------------------

    def resolve_class(
        self, info: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        """The :class:`ClassInfo` a local class name refers to, following
        one import hop (``from repro.x import Cls``)."""
        local = info.classes.get(name)
        if local is not None:
            return local
        target = info.imports.get(name)
        if target is None or "." not in target:
            return None
        target_module, _, target_name = target.rpartition(".")
        remote = self.modules.get(target_module)
        if remote is None:
            return None
        return remote.classes.get(target_name)

    def class_of_annotation(
        self, info: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[ClassInfo]:
        """The class an annotation names (``Cls``, ``"Cls"``,
        ``Optional[Cls]``), resolved through imports."""
        if annotation is None:
            return None
        node = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):  # Optional[X] / "X" | None
            node = node.slice
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            node = node.left
        if isinstance(node, ast.Name):
            return self.resolve_class(info, node.id)
        if isinstance(node, ast.Attribute):
            return self.resolve_class(info, node.attr)
        return None

    def method_on(
        self, cls: ClassInfo, name: str
    ) -> Optional[ResolvedCall]:
        """Resolve a method on a class, following one base-class hop."""
        node = cls.methods.get(name)
        if node is not None:
            return (cls.module, f"{cls.name}.{name}", node)
        owner = self.modules.get(cls.module)
        if owner is None:
            return None
        for base_name in cls.bases:
            base = self.resolve_class(owner, base_name)
            if base is not None and name in base.methods:
                return (base.module, f"{base.name}.{name}", base.methods[name])
        return None

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self,
        info: ModuleInfo,
        call: ast.Call,
        current_class: Optional[ClassInfo] = None,
        param_classes: Optional[Dict[str, ClassInfo]] = None,
    ) -> Optional[ResolvedCall]:
        """Statically resolve a call to its defining function, or None.

        Handles: local functions, imported functions, class constructors
        (resolving to ``__init__``), ``module.func()`` on an imported
        module alias, ``self.method()`` (with one base-class hop and
        ``self.<attr> = Cls(...)`` attribute types), and ``param.method()``
        for parameters whose annotation resolves to a known class
        (``param_classes``, keyed by parameter name).
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(info, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id in ("self", "cls") and current_class is not None:
                direct = self.method_on(current_class, func.attr)
                if direct is not None:
                    return direct
                attr_cls_name = current_class.attribute_classes.get(func.attr)
                if attr_cls_name is not None:
                    return None
                return None
            if param_classes and owner.id in param_classes:
                return self.method_on(param_classes[owner.id], func.attr)
            target = info.imports.get(owner.id)
            if target is not None:
                remote = self.modules.get(target)
                if remote is not None:
                    return self._resolve_in_module(remote, func.attr)
            return None
        if (
            isinstance(owner, ast.Attribute)
            and isinstance(owner.value, ast.Name)
            and owner.value.id in ("self", "cls")
            and current_class is not None
        ):
            # self.<attr>.method() where __init__ did self.<attr> = Cls(...)
            attr_cls_name = current_class.attribute_classes.get(owner.attr)
            if attr_cls_name is not None:
                module = self.modules.get(current_class.module)
                if module is not None:
                    cls = self.resolve_class(module, attr_cls_name)
                    if cls is not None:
                        return self.method_on(cls, func.attr)
        return None

    def _resolve_name_call(
        self, info: ModuleInfo, name: str
    ) -> Optional[ResolvedCall]:
        if name in info.functions:
            return (info.module, name, info.functions[name])
        if name in info.classes:
            return self.method_on(info.classes[name], "__init__")
        target = info.imports.get(name)
        if target is None or "." not in target:
            return None
        target_module, _, target_name = target.rpartition(".")
        remote = self.modules.get(target_module)
        if remote is None:
            return None
        return self._resolve_in_module(remote, target_name)

    def _resolve_in_module(
        self, remote: ModuleInfo, name: str
    ) -> Optional[ResolvedCall]:
        if name in remote.functions:
            return (remote.module, name, remote.functions[name])
        if name in remote.classes:
            return self.method_on(remote.classes[name], "__init__")
        return None

    def param_classes_for(
        self, info: ModuleInfo, function: ast.FunctionDef
    ) -> Dict[str, ClassInfo]:
        """Parameter name → resolved annotation class, for one function."""
        out: Dict[str, ClassInfo] = {}
        args = function.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            cls = self.class_of_annotation(info, arg.annotation)
            if cls is not None:
                out[arg.arg] = cls
        return out
