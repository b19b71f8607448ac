"""Baseline composition algorithms from the evaluation (Section 4.1).

* **Random** — "randomly selects a candidate component for each required
  function"; no probing, no load awareness.  The pick is admitted only if
  the resulting composition happens to satisfy Eqs. 2–5.
* **Static** — "selects a fixed candidate component for each function"
  (the first-registered instance); all load for a function lands on one
  node, so contention collapses it quickly.
* **SP (selective probing)** — "only uses the ACP's per-hop candidate
  component selection scheme but replaces the optimal composition
  selection (Equation 1) with random composition selection."
* **RP (random probing)** — "performs random per-hop candidate component
  selection but uses the ACP's optimal composition selection scheme.  The
  RP approach represents the fully distributed approach since it only
  requires local states."

SP and RP are configurations of the shared probing protocol
(:class:`~repro.core.prober.ProbingComposer`); Random and Static are
implemented directly here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.composer import Composer, CompositionContext, CompositionOutcome
from repro.core.prober import (
    FinalSelectionPolicy,
    HopSelectionPolicy,
    ProbingComposer,
)
from repro.model.component import Component
from repro.model.request import StreamRequest


class SelectiveProbingComposer(ProbingComposer):
    """SP: guided per-hop selection, random final selection."""

    name = "SP"

    def __init__(
        self,
        context: CompositionContext,
        probing_ratio: float = 0.3,
    ) -> None:
        super().__init__(
            context,
            probing_ratio=probing_ratio,
            hop_policy=HopSelectionPolicy.GUIDED,
            final_policy=FinalSelectionPolicy.RANDOM,
            use_global_state=True,
        )


class RandomProbingComposer(ProbingComposer):
    """RP: random per-hop selection (no global state), φ-optimal final."""

    name = "RP"

    def __init__(
        self,
        context: CompositionContext,
        probing_ratio: float = 0.3,
    ) -> None:
        super().__init__(
            context,
            probing_ratio=probing_ratio,
            hop_policy=HopSelectionPolicy.RANDOM,
            final_policy=FinalSelectionPolicy.PHI,
            use_global_state=False,
        )


class _OneShotComposer(Composer):
    """Shared machinery for the probe-less Random and Static baselines."""

    def _pick(self, request: StreamRequest, function_index: int) -> Optional[Component]:
        raise NotImplementedError

    def compose(self, request: StreamRequest) -> CompositionOutcome:
        """Pick one candidate per function and admit it if feasible."""
        graph = request.function_graph
        assignment: Dict[int, Component] = {}
        for function_index in graph.topological_order():
            candidate = self._pick(request, function_index)
            if candidate is None:
                return self._fail(request, "no_candidates")
            assignment[function_index] = candidate
        used = [c.component_id for c in assignment.values()]
        if len(set(used)) != len(used):
            # the same instance was drawn for two placements — not runnable
            return self._fail(request, "duplicate_component")
        if not self.evaluator.interface_compatible(request, assignment):
            return self._fail(request, "incompatible_interfaces")
        composition = self.evaluator.build_component_graph(request, assignment)
        ok, reason = self.evaluator.feasible(composition)
        if not ok:
            return self._fail(request, reason or "infeasible")
        return CompositionOutcome(
            request=request,
            composition=composition,
            success=True,
            setup_messages=self._setup_messages(composition),
            explored=1,
            phi=self.evaluator.phi(composition),
        )


class RandomComposer(_OneShotComposer):
    """Random: uniformly random candidate per function, no probing."""

    name = "Random"

    def _pick(self, request: StreamRequest, function_index: int) -> Optional[Component]:
        function = request.function_graph.node(function_index).function
        candidates = self.context.registry.candidates(function)
        if not candidates:
            return None
        return candidates[self.context.rng.randrange(len(candidates))]


class StaticComposer(_OneShotComposer):
    """Static: the fixed (first-registered) candidate per function."""

    name = "Static"

    def _pick(self, request: StreamRequest, function_index: int) -> Optional[Component]:
        function = request.function_graph.node(function_index).function
        return self.context.registry.static_choice(function)
