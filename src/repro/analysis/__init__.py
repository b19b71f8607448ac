"""Static analysis for the reproduction's two load-bearing invariants.

Every numeric claim this repo makes rests on properties no single test
can check globally:

* **Determinism** — a :class:`~repro.simulation.system.SystemConfig` seed
  must pin every decision.  The differential tests (churned vs freshly
  built routers, and the oracles in ``tests/oracles/`` — the scalar
  scorer against ``FastScorer`` and the heap Dijkstra against the
  neighbourhood index), the traced == untraced equivalence, and the
  paper's ACP-vs-baseline comparisons all replay the same run twice and
  demand identical answers; one unseeded RNG draw or one iteration over
  an unordered ``set`` feeding a tie-break silently voids them.
* **Layering** — packages only import downward through a declared DAG
  (model → topology → state/discovery → allocation/placement → core →
  middleware → simulation → experiments/cli), with ``observability``
  importable by everyone and importing no one.  Upward imports are how
  "the simulator reaches into the prober's internals" regressions start.

``repro-lint`` (also ``python -m repro.analysis``) walks the AST of every
file under ``src/repro`` and enforces both, plus the recorder discipline
that keeps the disabled-tracing path within its ≤5 % budget.  Rule codes,
the layer DAG, and the suppression syntax are documented in
``DEVELOPMENT.md``; suppress a single line with
``# repro-lint: disable=CODE`` plus a justification.

This package is a build tool: it imports nothing from the runtime layers
and nothing imports it.
"""

from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.rules import ALL_RULES, rule_catalog
from repro.analysis.violations import Violation

__all__ = [
    "ALL_RULES",
    "LintResult",
    "Violation",
    "lint_paths",
    "rule_catalog",
]
