"""The ``@hot_path`` complexity-budget marker.

DEVELOPMENT.md's complexity-budget table declares an asymptotic budget
for every subsystem that runs per composition, per churn event, or per
state update.  ``@hot_path(budget="O(P × k)")`` attaches that declared
budget to the function that implements it, so the static analyser
(``repro.analysis.hotpath``, rules HOT501–HOT506) can flag O(N)-shaped
work — full materialisations, dense N×N allocations, unguarded
formatting — inside the marked function *and* its statically-resolved
callees.

The marker is deliberately free at runtime: it stores the budget string
on the function object and returns the function unchanged — no wrapper,
no extra frame, nothing for the disabled-trace overhead guard to notice.
It lives in ``observability`` (the universal sidecar) because runtime
packages may not import the ``analysis`` tool package.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: attribute the marker stores the declared budget under
BUDGET_ATTRIBUTE = "__hot_path_budget__"


def hot_path(budget: str) -> Callable[[F], F]:
    """Declare the complexity budget of a hot-path function.

    ``budget`` is the declared asymptotic cost, written as an ``O(...)``
    expression in the vocabulary of DEVELOPMENT.md's complexity-budget
    table (``N`` overlay nodes, ``P`` probes per level, ``k`` the prune
    bound, ``C`` a cache bound, ...).  The linter rejects markers whose
    budget is not an ``O(...)`` string (HOT506).
    """

    def mark(func: F) -> F:
        setattr(func, BUDGET_ATTRIBUTE, budget)
        return func

    return mark
