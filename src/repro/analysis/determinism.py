"""Determinism rules: seeded RNG only, no wall clocks, no unordered iteration.

==========  =============================================================
code        what it flags
==========  =============================================================
``DET101``  the process-global RNG: ``random.<draw>()`` module calls,
            ``from random import choice``-style imports of draw
            functions, ``random.Random()`` constructed without a seed,
            the ``random`` module object passed around as an RNG, and
            ``numpy.random`` global draws / unseeded ``default_rng()``.
``DET102``  wall-clock reads — ``time.time``/``perf_counter``/
            ``monotonic`` (call or import) and ``datetime.now``-family —
            anywhere outside the observability timer module.  Simulated
            time comes from the event scheduler; profiling timers live
            behind the :class:`~repro.observability.recorder.Recorder`.
``DET103``  iteration over an expression that is statically a ``set``
            (or ``dict.keys()`` call) feeding an ordering-sensitive sink
            — a ``for`` loop or comprehension, ``list``/``tuple``/
            ``enumerate``/``fromiter`` materialisation, or an RNG draw
            such as ``rng.sample`` — without an explicit ``sorted(...)``.
            Order-insensitive folds (``min``/``max``/``sum``/``len``/
            ``any``/``all``/``set``/``frozenset``/membership) are fine.
==========  =============================================================

Set-ness is tracked syntactically, per function scope: set literals and
comprehensions, ``set(...)``/``frozenset(...)`` calls, set-operator
expressions over known sets, names assigned or annotated as sets in the
enclosing scope, and ``self.<attr>`` fields the module assigns or
annotates as sets anywhere.  This is deliberately a conservative
whole-file approximation — a false positive on provably order-free code
takes a one-line justified suppression, a false negative takes a flaky
experiment report.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.violations import Violation

#: module-level draw functions on ``random`` (the shared global RNG)
_GLOBAL_RANDOM_DRAWS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

_WALLCLOCK_TIME_NAMES = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }
)
_WALLCLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: modules allowed to read the wall clock (the profiling timer lives here)
WALLCLOCK_ALLOWED_MODULES = frozenset({"repro.observability.recorder"})

#: callables whose argument order is observable in the result
_ORDER_SENSITIVE_CALLEES = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed", "fromiter"}
)
_ORDER_SENSITIVE_METHODS = frozenset(
    {"sample", "choice", "choices", "shuffle", "fromiter", "extend"}
)
#: callables that fold without observing order (never flag these sinks)
_ORDER_FREE_CALLEES = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "bool"}
)

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_set_annotation(node: ast.expr) -> bool:
    """``Set[...]``/``FrozenSet[...]``/``set[...]``/``frozenset[...]``."""
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in {"Set", "FrozenSet", "set", "frozenset", "AbstractSet"}
    if isinstance(target, ast.Attribute):  # typing.Set, typing.FrozenSet
        return target.attr in {"Set", "FrozenSet", "AbstractSet"}
    return False


class _ScopeFrame:
    """Names (and self-attributes) known to hold sets in one scope."""

    def __init__(self, names: Set[str], attrs: Set[str]) -> None:
        self.names = names
        self.attrs = attrs


class DeterminismChecker:
    """Runs DET101/DET102/DET103 over one module's AST."""

    def __init__(self, path: str, tree: ast.Module, module: Optional[str]) -> None:
        self.path = path
        self.tree = tree
        self.module = module
        self.violations: List[Violation] = []
        #: Name nodes consumed as ``random.<attr>`` (not bare module refs)
        self._attribute_value_ids: Set[int] = set()
        #: attributes assigned/annotated as sets anywhere in the module
        self._set_attrs: Set[str] = set()
        #: comprehensions consumed by an order-free fold (``any(x in s)``)
        self._order_free_comprehensions: Set[int] = set()

    # -- entry point --------------------------------------------------------

    def run(self) -> List[Violation]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Attribute):
                self._attribute_value_ids.add(id(node.value))
        self._collect_set_attrs()
        self._check_imports()
        self._check_rng_and_clock_calls()
        module_frame = _ScopeFrame(set(), self._set_attrs)
        self._collect_set_names(self.tree, module_frame.names)
        self._check_scope(self.tree, module_frame)
        return self.violations

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, node.lineno, node.col_offset + 1, code, message)
        )

    # -- DET101 / DET102: imports -----------------------------------------------

    def _wallclock_allowed(self) -> bool:
        return self.module in WALLCLOCK_ALLOWED_MODULES

    def _check_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    drawn = [
                        alias.name
                        for alias in node.names
                        if alias.name in _GLOBAL_RANDOM_DRAWS
                    ]
                    if drawn:
                        self._emit(
                            node,
                            "DET101",
                            "import of module-level random draw(s) "
                            f"{', '.join(sorted(drawn))} — inject a seeded "
                            "random.Random instead",
                        )
                elif node.module == "time" and not self._wallclock_allowed():
                    clocks = [
                        alias.name
                        for alias in node.names
                        if alias.name in _WALLCLOCK_TIME_NAMES
                    ]
                    if clocks:
                        self._emit(
                            node,
                            "DET102",
                            f"wall-clock import ({', '.join(sorted(clocks))}) "
                            "outside the observability timer module — use the "
                            "simulation clock or a Recorder phase timer",
                        )

    # -- DET101 / DET102: calls and bare module references ----------------------

    def _check_rng_and_clock_calls(self) -> None:
        wallclock_ok = self._wallclock_allowed()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node, wallclock_ok)
            elif isinstance(node, ast.Name):
                if (
                    node.id == "random"
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in self._attribute_value_ids
                ):
                    self._emit(
                        node,
                        "DET101",
                        "the random module object used as an RNG value — "
                        "pass a seeded random.Random instance",
                    )

    def _check_call(self, node: ast.Call, wallclock_ok: bool) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "Random" and not node.args and not node.keywords:
                self._emit(
                    node, "DET101", "Random() constructed without a seed"
                )
            elif func.id == "default_rng" and not node.args:
                self._emit(
                    node, "DET101", "default_rng() constructed without a seed"
                )
            elif (
                func.id in _WALLCLOCK_TIME_NAMES
                and not wallclock_ok
                and self._name_is_time_import(func.id)
            ):
                self._emit(
                    node,
                    "DET102",
                    f"wall-clock call {func.id}() outside the observability "
                    "timer module",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id == "random":
                if func.attr in _GLOBAL_RANDOM_DRAWS:
                    self._emit(
                        node,
                        "DET101",
                        f"module-level random.{func.attr}() draws from the "
                        "process-global RNG — inject a seeded random.Random",
                    )
                elif func.attr == "SystemRandom":
                    self._emit(
                        node, "DET101", "SystemRandom() is entropy-backed and "
                        "unseedable",
                    )
                elif func.attr == "Random" and not node.args and not node.keywords:
                    self._emit(
                        node, "DET101", "random.Random() constructed without a seed"
                    )
            elif owner.id == "time":
                if func.attr in _WALLCLOCK_TIME_NAMES and not wallclock_ok:
                    self._emit(
                        node,
                        "DET102",
                        f"wall-clock call time.{func.attr}() outside the "
                        "observability timer module",
                    )
            elif owner.id in {"datetime", "date"}:
                if func.attr in _WALLCLOCK_DATETIME_ATTRS and not wallclock_ok:
                    self._emit(
                        node,
                        "DET102",
                        f"wall-clock call {owner.id}.{func.attr}() outside "
                        "the observability timer module",
                    )
        elif isinstance(owner, ast.Attribute):
            # np.random.<draw>() / numpy.random.default_rng()
            if owner.attr == "random" and isinstance(owner.value, ast.Name):
                if func.attr == "default_rng":
                    if not node.args:
                        self._emit(
                            node, "DET101", "default_rng() constructed without a seed"
                        )
                elif func.attr not in {"Generator", "RandomState", "SeedSequence"}:
                    self._emit(
                        node,
                        "DET101",
                        f"global numpy RNG draw {owner.value.id}.random."
                        f"{func.attr}() — use a seeded Generator",
                    )
            # datetime.datetime.now() chains
            elif (
                func.attr in _WALLCLOCK_DATETIME_ATTRS
                and owner.attr in {"datetime", "date"}
                and not wallclock_ok
            ):
                self._emit(
                    node,
                    "DET102",
                    f"wall-clock call datetime.{owner.attr}.{func.attr}() "
                    "outside the observability timer module",
                )

    def _name_is_time_import(self, name: str) -> bool:
        """True if ``name`` was imported from :mod:`time` in this module."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return True
        return False

    # -- DET103: set-typed expressions feeding ordered sinks ---------------------

    def _collect_set_attrs(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and self._is_set_expr(
                        node.value, _ScopeFrame(set(), set())
                    ):
                        self._set_attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Attribute) and _is_set_annotation(
                    node.annotation
                ):
                    self._set_attrs.add(node.target.attr)

    def _collect_set_names(self, scope: ast.AST, names: Set[str]) -> None:
        """Names assigned/annotated as sets directly in ``scope``'s body."""
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg, annotation in _annotated_args(scope):
                if annotation is not None and _is_set_annotation(annotation):
                    names.add(arg)
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign):
                if self._is_set_expr(node.value, _ScopeFrame(names, self._set_attrs)):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation):
                    names.add(node.target.id)

    def _is_set_expr(self, node: ast.expr, frame: _ScopeFrame) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in {
                "set",
                "frozenset",
            }:
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return True  # dict.keys(): iterate the dict itself, or sort
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "union", "intersection", "difference", "symmetric_difference",
            }:
                return self._is_set_expr(node.func.value, frame)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(node.left, frame) or self._is_set_expr(
                node.right, frame
            )
        if isinstance(node, ast.Name):
            return node.id in frame.names
        if isinstance(node, ast.Attribute):
            return node.attr in frame.attrs
        return False

    def _check_scope(self, scope: ast.AST, frame: _ScopeFrame) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = _ScopeFrame(set(frame.names), frame.attrs)
                self._collect_set_names(node, inner.names)
                self._check_scope(node, inner)
                continue
            self._check_node(node, frame)
            self._check_scope(node, frame)

    def _check_node(self, node: ast.AST, frame: _ScopeFrame) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._flag_if_set(node.iter, frame, "for-loop iteration")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            if id(node) in self._order_free_comprehensions:
                return
            for generator in node.generators:
                self._flag_if_set(
                    generator.iter, frame, "comprehension iteration"
                )
        elif isinstance(node, ast.Call):
            self._check_sink_call(node, frame)
        elif isinstance(node, ast.Starred):
            self._flag_if_set(node.value, frame, "unpacking")

    def _check_sink_call(self, node: ast.Call, frame: _ScopeFrame) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _ORDER_FREE_CALLEES:
                # a generator folded order-free (``any(x > 0 for x in s)``)
                # may iterate an unordered set without observing order
                for arg in node.args:
                    if isinstance(
                        arg, (ast.ListComp, ast.GeneratorExp, ast.SetComp)
                    ):
                        self._order_free_comprehensions.add(id(arg))
                return
            if func.id in _ORDER_SENSITIVE_CALLEES and node.args:
                self._flag_if_set(node.args[0], frame, f"{func.id}(...)")
        elif isinstance(func, ast.Attribute):
            if func.attr in _ORDER_SENSITIVE_METHODS and node.args:
                self._flag_if_set(node.args[0], frame, f".{func.attr}(...)")

    def _flag_if_set(self, node: ast.expr, frame: _ScopeFrame, sink: str) -> None:
        if self._is_set_expr(node, frame):
            self._emit(
                node,
                "DET103",
                f"unordered set/dict-keys expression feeds {sink} — wrap in "
                "sorted(...) or justify with a suppression",
            )


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``scope`` without entering nested function scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _annotated_args(node: ast.AST) -> List:
    args = node.args
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    return [(a.arg, a.annotation) for a in every]


def check_determinism(
    path: str, tree: ast.Module, module: Optional[str]
) -> List[Violation]:
    """All DET1xx violations for one parsed module."""
    return DeterminismChecker(path, tree, module).run()
