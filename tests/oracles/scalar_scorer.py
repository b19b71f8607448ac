"""Per-candidate scalar scoring: the reference for ``FastScorer`` levels.

An independent, one-expansion-at-a-time form of one probing level: for
every (probe, candidate) pair, in probe-major and candidate-registration
order, the interface-compatibility filters, Eq. 6–8 qualification
against the coarse-grain global state, and the Eq. 9/10 risk and
congestion scores.  It works through ``QoSVector`` / ``ResourceVector``
arithmetic, the scalar equations below and per-pair router queries, and
shares no array code with :mod:`repro.core.fastscore`, so tests comparing
the two are not circular.

Guided selection over its pool is :func:`select_best`; the random hop
policy samples pool positions, so equal pools in equal order consume the
same draws.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.composer import CompositionContext
from repro.core.probe import Probe
from repro.core.selection import RISK_TIE_EPSILON, RankingPolicy, ScoredCandidate
from repro.model.component import Component
from repro.model.qos import QoSVector, elementwise_max
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector, congestion_terms


# -- the scalar equations (Eqs. 6-10) ---------------------------------------------


def combine_all(vectors: Iterable[QoSVector]) -> QoSVector:
    """Fold :meth:`QoSVector.combine` over ``vectors`` (empty → zero)."""
    total = QoSVector.zero()
    for vector in vectors:
        total = total.combine(vector)
    return total


def utilization(qos: QoSVector, requirement: QoSVector) -> Tuple[float, ...]:
    """Per-metric fraction of the requirement consumed, in additive space.

    A value of 1.0 means the metric exactly meets its bound; > 1.0 means
    the bound is violated.  Metrics with a zero (or effectively
    unconstrained) requirement report 0.0 when the accumulated value is
    also zero and ``inf`` otherwise.
    """
    accumulated = qos.additive_values()
    bounds = requirement.additive_values()
    out = []
    for acc, bound in zip(accumulated, bounds):
        if bound <= 0.0:
            out.append(0.0 if acc <= 0.0 else math.inf)
        else:
            out.append(acc / bound)
    return tuple(out)


def risk_value(accumulated_qos: QoSVector, requirement: QoSVector) -> float:
    """Eq. 9: D(c) = max_m (q_acc + q_c + q_l)_m / q_m^req.

    ``accumulated_qos`` must already include the candidate component and the
    virtual link(s) into it.  Ratios are taken in additive space so the
    loss-rate metric is meaningful.  Values > 1 mean the bound is already
    violated.
    """
    return max(utilization(accumulated_qos, requirement))


def congestion_value(
    requirement: ResourceVector,
    available: ResourceVector,
    bandwidth_requirements: Sequence[float] = (),
    available_bandwidths: Sequence[float] = (),
) -> float:
    """Eq. 10: W(c) = Σ_k r_k/(rr_k + r_k) + Σ b/(rb + b).

    With residuals defined as available − required this reduces to
    Σ r_k/ra_k + Σ b/ba.  Multiple (bandwidth, availability) pairs support
    DAG joins, where a candidate is reached over one virtual link per
    predecessor.  Saturated dimensions yield ``inf``.
    """
    total = sum(congestion_terms(requirement, available))
    for bandwidth, available_bw in zip(bandwidth_requirements, available_bandwidths):
        if bandwidth <= 0.0:
            continue
        if available_bw <= 0.0:
            total += float("inf")
        else:
            total += bandwidth / available_bw
    return total


def qualification_failure(
    accumulated_qos: QoSVector,
    qos_requirement: QoSVector,
    resource_requirement: ResourceVector,
    available: ResourceVector,
    bandwidth_requirements: Sequence[float] = (),
    available_bandwidths: Sequence[float] = (),
) -> Optional[str]:
    """Eqs. 6–8 qualification check; None if qualified, else the reason.

    * Eq. 6 — the QoS accumulation through this candidate already exceeds
      the user requirement in some metric;
    * Eq. 7 — the candidate's node lacks the required end-system resources;
    * Eq. 8 — some virtual link into the candidate lacks the required
      bandwidth.
    """
    if not accumulated_qos.satisfies(qos_requirement):
        return "qos"
    if not available.covers(resource_requirement):
        return "node_resources"
    for bandwidth, available_bw in zip(bandwidth_requirements, available_bandwidths):
        if available_bw < bandwidth - 1e-9:
            return "link_bandwidth"
    return None


def select_best(
    scored: Sequence[ScoredCandidate],
    limit: int,
    risk_tie_epsilon: float = RISK_TIE_EPSILON,
    ranking: RankingPolicy = RankingPolicy.RISK_THEN_CONGESTION,
) -> List[ScoredCandidate]:
    """Keep the ``limit`` best candidates by (risk, then congestion).

    Risk values are bucketed by ``risk_tie_epsilon`` so that "similar" risks
    compare on the congestion function, per Section 3.5.  Ties beyond that
    break on component id for determinism.
    """
    if limit <= 0:
        return []

    def key(entry: ScoredCandidate) -> Tuple[float, ...]:
        if ranking is RankingPolicy.RISK_ONLY:
            return (entry.risk, entry.candidate.component_id)
        if ranking is RankingPolicy.CONGESTION_ONLY:
            return (entry.congestion, entry.candidate.component_id)
        bucket = (
            round(entry.risk / risk_tie_epsilon)
            if risk_tie_epsilon > 0
            else entry.risk
        )
        return (bucket, entry.congestion, entry.candidate.component_id)

    return sorted(scored, key=key)[:limit]


# -- one level, one pair at a time -------------------------------------------------


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
