"""Per-candidate scalar scoring: the reference for ``FastScorer`` levels.

An independent, one-expansion-at-a-time form of one probing level: for
every (probe, candidate) pair, in probe-major and candidate-registration
order, the interface-compatibility filters, Eq. 6–8 qualification
against the coarse-grain global state, and the Eq. 9/10 risk and
congestion scores.  It works through ``QoSVector`` / ``ResourceVector``
arithmetic, the scalar equations in :mod:`repro.core.selection` and
per-pair router queries, and shares no array code with
:mod:`repro.core.fastscore`, so tests comparing the two are not circular.

Guided selection over its pool is :func:`repro.core.selection.select_best`;
the random hop policy samples pool positions, so equal pools in equal
order consume the same draws.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.composer import CompositionContext
from repro.core.probe import Probe
from repro.core.selection import (
    ScoredCandidate,
    congestion_value,
    qualification_failure,
    risk_value,
)
from repro.model.component import Component
from repro.model.qos import QoSVector, elementwise_max
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector


class ScalarScorer:
    """Scores levels like ``FastScorer.score_level``, one pair at a time.

    The coarse-grain view of a candidate or a virtual link cannot change
    while one request's wavefront runs, but several probes score the same
    candidate, so each is looked up once per request: the two memos live
    from one :meth:`begin_request` to the next.
    """

    def __init__(self, context: CompositionContext) -> None:
        self.context = context
        self._stale_qos: Dict[int, QoSVector] = {}
        self._stale_bw: Dict[Tuple[int, int], float] = {}

    def begin_request(self) -> None:
        self._stale_qos.clear()
        self._stale_bw.clear()

    def score_level(
        self,
        request: StreamRequest,
        probes: Sequence[Probe],
        function_id: int,
        candidates: Sequence[Component],
        function_index: int,
        predecessors: Tuple[int, ...],
        requirement: ResourceVector,
        input_rate: float,
        use_global_state: bool,
    ) -> List[ScoredCandidate]:
        """The qualified expansions of one level, in pool order.

        Takes ``FastScorer.score_level``'s arguments unchanged;
        ``function_id`` only keys the production scorer's tables.
        """
        pool = []
        for probe in probes:
            for candidate in candidates:
                entry = self.score_candidate(
                    probe,
                    function_index,
                    candidate,
                    predecessors,
                    requirement,
                    input_rate,
                    use_global_state,
                )
                if entry is not None:
                    pool.append(entry)
        return pool

    def score_candidate(
        self,
        probe: Probe,
        function_index: int,
        candidate: Component,
        predecessors: Tuple[int, ...],
        requirement: ResourceVector,
        input_rate: float,
        use_global_state: bool,
    ) -> Optional[ScoredCandidate]:
        """Compatibility + Eqs. 6-8 + Eq. 9/10 scores for one expansion."""
        context = self.context
        request = probe.request
        # a component instance runs at most one placement per session
        for assigned in probe.assignment.values():
            if assigned.component_id == candidate.component_id:
                return None
        # interface compatibility: stream rate, capability tags, then
        # per-predecessor formats
        if input_rate > candidate.max_input_rate:
            return None
        if not candidate.satisfies_attributes(request.required_attributes):
            return None
        if not context.network.node(candidate.node_id).alive:
            return None  # crashed host: component unusable
        for predecessor in predecessors:
            if not probe.assignment[predecessor].compatible_with(candidate):
                return None

        # The candidate's QoS as this node can know it: through the
        # coarse-grain global state when available, else the advertised
        # (base) interface values.  Probes verify precisely on arrival.
        if use_global_state:
            candidate_qos = self._stale_qos.get(candidate.component_id)
            if candidate_qos is None:
                candidate_qos = context.stale_component_qos(candidate)
                self._stale_qos[candidate.component_id] = candidate_qos
        else:
            candidate_qos = candidate.qos

        # QoS accumulation through the candidate (worst path over joins)
        pre_qos: Optional[QoSVector] = None
        if predecessors:
            accumulated = None
            for predecessor in predecessors:
                upstream = probe.assignment[predecessor]
                if not context.router.reachable(upstream.node_id, candidate.node_id):
                    return None  # no overlay path: no virtual link possible
                vl_qos = context.router.virtual_link_qos(
                    upstream.node_id, candidate.node_id
                )
                through = probe.accumulated_out[predecessor].combine(vl_qos)
                accumulated = (
                    through
                    if accumulated is None
                    else elementwise_max(accumulated, through)
                )
            pre_qos = accumulated
            accumulated = accumulated.combine(candidate_qos)
        else:
            accumulated = candidate_qos

        if not use_global_state:
            # no global state: only the probe-carried QoS accumulation can
            # disqualify a candidate before travelling there (Eq. 6)
            if not accumulated.satisfies(request.qos_requirement):
                return None
            return ScoredCandidate(
                candidate=candidate,
                risk=0.0,
                congestion=0.0,
                accumulated_qos=accumulated,
                parent=probe,
                pre_qos=pre_qos,
            )

        bandwidth_requirements = [
            request.bandwidth_for((predecessor, function_index))
            for predecessor in predecessors
        ]
        available = context.global_state.node_available(candidate.node_id)
        available_bandwidths = []
        for predecessor in predecessors:
            pair = (probe.assignment[predecessor].node_id, candidate.node_id)
            stale_bw = self._stale_bw.get(pair)
            if stale_bw is None:
                # per-pair path walk over the reported link states, where
                # the production scorer folds whole rows down the tree
                path = context.router.overlay_path(*pair)
                stale_bw = context.global_state.virtual_link_available_kbps(path)
                self._stale_bw[pair] = stale_bw
            available_bandwidths.append(stale_bw)
        failure = qualification_failure(
            accumulated,
            request.qos_requirement,
            requirement,
            available,
            bandwidth_requirements,
            available_bandwidths,
        )
        if failure is not None:
            return None
        return ScoredCandidate(
            candidate=candidate,
            risk=risk_value(accumulated, request.qos_requirement),
            congestion=congestion_value(
                requirement, available, bandwidth_requirements, available_bandwidths
            ),
            accumulated_qos=accumulated,
            parent=probe,
            pre_qos=pre_qos,
        )
