"""The optimal (exhaustive-search) composition algorithm.

Section 4.1: "The optimal algorithm exhaustively searches all candidate
component compositions to find the best composition."  Its overhead in
Figs. 6(b)/7(b) is "measured by the number of probes required by the
exhaustive search" — i.e. the partial compositions it examines.

:class:`OptimalComposer` finds the exact optimum with a branch-and-bound
depth-first search over function placements in topological order.  It is
exact because every pruning rule is sound:

* **QoS** — accumulation is monotone (additive metrics in additive space),
  so a partial composition violating Eq. 3 cannot be completed into a
  qualified one;
* **resources** — demands only grow, so a partial violating Eq. 4/5 is dead;
* **bound** — φ's terms are non-negative, and the per-placement lower
  bounds (each function's cheapest possible congestion term, computed once
  per request) make ``partial φ + remaining lower bound ≥ best φ`` a valid
  cut.  Candidates are visited cheapest-term-first so a near-optimal
  incumbent appears early and the cut bites.

Like the paper's optimal baseline, the search runs on precise global
knowledge (it is the hypothetical centralised algorithm ACP is compared
against) and performs no transient reservations.

A safety cap on explored partials (default 500k) guards pathological
corners of workload space; if it ever fires the best incumbent is returned
and :attr:`CompositionOutcome.explored` still reports the true work done.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.composer import Composer, CompositionContext, CompositionOutcome
from repro.model.component import Component
from repro.model.qos import QoSVector, elementwise_max
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector, congestion_terms


class OptimalComposer(Composer):
    """Exhaustive search with sound branch-and-bound pruning."""

    name = "Optimal"

    def __init__(self, context: CompositionContext, max_explored: int = 500_000) -> None:
        super().__init__(context)
        if max_explored <= 0:
            raise ValueError(f"max_explored must be positive, got {max_explored}")
        self.max_explored = max_explored
        #: how many compose() calls hit the exploration cap (diagnostics)
        self.truncated_searches = 0

    def compose(self, request: StreamRequest) -> CompositionOutcome:
        """Exhaustively search for the φ-minimal qualified composition."""
        context = self.context
        graph = request.function_graph
        topo = graph.topological_order()
        rates = graph.input_rates(request.stream_rate)

        # Per-placement candidate lists, rate-compatible only, each entry
        # carrying its static congestion term for ordering and bounds.
        ordered_candidates: Dict[int, List[Tuple[float, Component]]] = {}
        # the optimal algorithm allocates nothing while searching, so one
        # set of live reads serves every extension and every leaf
        reads = self.evaluator.reads(request)
        for function_index in topo:
            function = graph.node(function_index).function
            requirement = request.requirement_for(function_index)
            entries: List[Tuple[float, Component]] = []
            for candidate in context.registry.candidates(function):
                if rates[function_index] > candidate.max_input_rate:
                    continue
                if not candidate.satisfies_attributes(
                    request.required_attributes
                ):
                    continue
                if not context.network.node(candidate.node_id).alive:
                    continue  # crashed host: component unusable
                available = context.network.node(candidate.node_id).available
                term = sum(congestion_terms(requirement, available))
                entries.append((term, candidate))
            if not entries:
                return self._fail(request, "no_candidates")
            entries.sort(key=lambda pair: (pair[0], pair[1].component_id))
            ordered_candidates[function_index] = entries

        # Admissible lower bound on the φ contribution of the remaining
        # placements from each search depth onward.
        suffix_bound = [0.0] * (len(topo) + 1)
        for position in range(len(topo) - 1, -1, -1):
            cheapest = ordered_candidates[topo[position]][0][0]
            suffix_bound[position] = suffix_bound[position + 1] + cheapest

        best: Dict[str, object] = {"phi": float("inf"), "composition": None}
        explored = 0
        truncated = False

        assignment: Dict[int, Component] = {}
        accumulated_out: Dict[int, QoSVector] = {}
        node_demand: Dict[int, ResourceVector] = {}

        def search(position: int, partial_phi: float) -> None:
            nonlocal explored, truncated
            if truncated:
                return
            if position == len(topo):
                composition = self.evaluator.build_component_graph(
                    request, assignment
                )
                verdict = self.evaluator.judge(composition, reads)
                if isinstance(verdict, str):
                    return
                if verdict < best["phi"]:
                    best["phi"] = verdict
                    best["composition"] = composition
                return
            function_index = topo[position]
            predecessors = graph.predecessors(function_index)
            requirement = request.requirement_for(function_index)
            for term, candidate in ordered_candidates[function_index]:
                if truncated:
                    return
                explored += 1
                if explored >= self.max_explored:
                    truncated = True
                    self.truncated_searches += 1
                    return
                if partial_phi + term + suffix_bound[position + 1] >= best["phi"]:
                    # candidates are term-sorted: nothing later can win either
                    break
                extension = self._extend(
                    request,
                    candidate,
                    reads.qos(candidate),
                    function_index,
                    predecessors,
                    requirement,
                    assignment,
                    accumulated_out,
                    node_demand,
                )
                if extension is None:
                    continue
                accumulated, phi_increment, previous_demand = extension
                assignment[function_index] = candidate
                accumulated_out[function_index] = accumulated
                search(position + 1, partial_phi + phi_increment)
                del assignment[function_index]
                del accumulated_out[function_index]
                if previous_demand is None:
                    del node_demand[candidate.node_id]
                else:
                    node_demand[candidate.node_id] = previous_demand

        search(0, 0.0)

        composition = best["composition"]
        if composition is None:
            return self._fail(
                request, "no_qualified_composition", probe_messages=explored,
                explored=explored,
            )
        return CompositionOutcome(
            request=request,
            composition=composition,
            success=True,
            probe_messages=explored,  # probes of the brute-force prober
            setup_messages=self._setup_messages(composition),
            explored=explored,
            phi=best["phi"],
        )

    def _extend(
        self,
        request: StreamRequest,
        candidate: Component,
        candidate_qos: QoSVector,
        function_index: int,
        predecessors: Tuple[int, ...],
        requirement: ResourceVector,
        assignment: Dict[int, Component],
        accumulated_out: Dict[int, QoSVector],
        node_demand: Dict[int, ResourceVector],
    ) -> Optional[Tuple[QoSVector, float, Optional[ResourceVector]]]:
        """Try extending the partial composition with ``candidate``.

        Returns (accumulated QoS, φ increment, previous node demand) and
        mutates ``node_demand``; returns None if any pruning rule rejects
        the extension (leaving ``node_demand`` untouched).
        """
        context = self.context
        # one component instance per placement per session
        for assigned in assignment.values():
            if assigned.component_id == candidate.component_id:
                return None
        for predecessor in predecessors:
            if not assignment[predecessor].compatible_with(candidate):
                return None

        # QoS accumulation (worst path over joins) + Eq. 3 prune
        link_bandwidth_terms = 0.0
        if predecessors:
            accumulated = None
            for predecessor in predecessors:
                upstream = assignment[predecessor]
                if not context.router.reachable(
                    upstream.node_id, candidate.node_id
                ):
                    return None  # no overlay path: no virtual link possible
                vl_qos = context.router.virtual_link_qos(
                    upstream.node_id, candidate.node_id
                )
                through = accumulated_out[predecessor].combine(vl_qos)
                accumulated = (
                    through
                    if accumulated is None
                    else elementwise_max(accumulated, through)
                )
                bandwidth = request.bandwidth_for((predecessor, function_index))
                if upstream.node_id != candidate.node_id and bandwidth > 0.0:
                    live_bw = context.router.available_bandwidth(
                        upstream.node_id, candidate.node_id
                    )
                    if live_bw < bandwidth - 1e-9:
                        return None  # Eq. 5 prune
                    link_bandwidth_terms += bandwidth / live_bw
            accumulated = accumulated.combine(candidate_qos)
        else:
            accumulated = candidate_qos
        if not accumulated.satisfies(request.qos_requirement):
            return None

        # Eq. 4 prune with aggregate per-node demand
        available = context.network.node(candidate.node_id).available
        previous_demand = node_demand.get(candidate.node_id)
        new_demand = (
            requirement if previous_demand is None else previous_demand + requirement
        )
        if not available.covers(new_demand):
            return None
        node_demand[candidate.node_id] = new_demand

        # φ increment: this component's node terms against availability net
        # of the demand already placed on the node (a lower bound of the
        # final Eq. 1 term — see module docstring), plus its link terms.
        effective = (
            available if previous_demand is None else available - previous_demand
        )
        phi_increment = (
            sum(congestion_terms(requirement, effective)) + link_bandwidth_terms
        )
        return accumulated, phi_increment, previous_demand
