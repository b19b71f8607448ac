"""Bounded composition probing (BCP) — the prototype's simpler ACP.

Footnote 10: "The prototype implements bounded composition probing (i.e.,
a simpler version of ACP) and supports multimedia stream processing."

Where ACP budgets probes *relative to the candidate pool* (M = ⌈α·k⌉ per
function) and tunes α adaptively, BCP fixes a **total probe budget per
request** and splits it evenly across the request's functions — the shape
a deployed prototype prefers because its worst-case per-request message
cost is a constant, independent of how many candidates discovery returns.

Everything else (guided per-hop selection on the coarse-grain global
state, precise on-arrival checks, transient reservations, φ-minimal final
selection) is inherited from the probing protocol.
"""

from __future__ import annotations

from repro.core.composer import CompositionContext
from repro.core.prober import (
    FinalSelectionPolicy,
    HopSelectionPolicy,
    ProbingComposer,
)
from repro.model.request import StreamRequest


class BoundedProbingComposer(ProbingComposer):
    """BCP: a fixed per-request probe budget split across functions."""

    name = "BCP"

    def __init__(
        self,
        context: CompositionContext,
        probe_budget_total: int = 12,
    ) -> None:
        if probe_budget_total < 1:
            raise ValueError(
                f"probe_budget_total must be >= 1, got {probe_budget_total}"
            )
        super().__init__(
            context,
            probing_ratio=1.0,  # unused: the budget hook overrides it
            hop_policy=HopSelectionPolicy.GUIDED,
            final_policy=FinalSelectionPolicy.PHI,
            use_global_state=True,
        )
        self.probe_budget_total = probe_budget_total

    def _function_budget(
        self, request: StreamRequest, ratio: float, candidate_count: int
    ) -> int:
        """Even split of the request budget, clamped to the pool size."""
        functions = len(request.function_graph)
        share = max(1, self.probe_budget_total // max(1, functions))
        return min(share, candidate_count)
