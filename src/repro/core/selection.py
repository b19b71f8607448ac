"""Per-hop candidate component selection (Section 3.5).

When a probe reaches a component, the hosting node must decide which
next-hop candidate components to spawn probes for, under the probing ratio
constraint M = ⌈α·k⌉.  The paper's scheme, implemented here:

1. filter out interface-incompatible candidates (format / stream rate);
2. filter out *unqualified* candidates by Eqs. 6–8 using the coarse-grain
   global state (QoS bound already blown; node resources short; virtual
   link bandwidth short);
3. rank the qualified candidates by the risk function D(c) of Eq. 9 —
   smaller maximum QoS-violation risk first — breaking near-ties with the
   congestion function W(c) of Eq. 10 — less-loaded first — and keep the
   best M.

The functions are pure: all state is passed in, so the same code serves
ACP (stale global state in, precise collected state later) and unit tests
(synthetic values in).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.model.component import Component
from repro.model.qos import QoSVector
from repro.model.resources import ResourceVector, congestion_terms

#: Risk values within this relative distance count as "similar", falling
#: through to the congestion comparison (Section 3.5: "If two candidate
#: components have similar risk function values, we compare them based on
#: the load distribution goal").
RISK_TIE_EPSILON = 0.05


@dataclass(frozen=True)
class ScoredCandidate:
    """One (parent-probe, candidate) expansion option with its scores."""

    candidate: Component
    risk: float
    congestion: float
    #: QoS accumulated through this candidate's output (worst path so far).
    accumulated_qos: QoSVector
    #: Opaque parent handle threaded through by the prober.
    parent: object = None
    #: Worst-path QoS accumulated up to (but excluding) this candidate —
    #: i.e. through the virtual links into it.  ``None`` when the candidate
    #: has no predecessors.  The prober re-combines this with the
    #: candidate's *precise* QoS on probe arrival, so the through-link
    #: accumulation is not recomputed per dispatch.
    pre_qos: Optional[QoSVector] = None


def risk_value(accumulated_qos: QoSVector, requirement: QoSVector) -> float:
    """Eq. 9: D(c) = max_m (q_acc + q_c + q_l)_m / q_m^req.

    ``accumulated_qos`` must already include the candidate component and the
    virtual link(s) into it.  Ratios are taken in additive space so the
    loss-rate metric is meaningful.  Values > 1 mean the bound is already
    violated.
    """
    return max(accumulated_qos.utilization(requirement))


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


class RankingPolicy(enum.Enum):
    """What the per-hop top-M ranking orders on (ablation knob).

    The paper's scheme is :attr:`RISK_THEN_CONGESTION`; the other two
    isolate the contribution of each function for the selection ablation.
    """

    RISK_THEN_CONGESTION = "risk_then_congestion"
    RISK_ONLY = "risk_only"
    CONGESTION_ONLY = "congestion_only"


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


def probe_budget(probing_ratio: float, candidate_count: int) -> int:
    """M = ⌈α · k⌉ — how many candidates to probe for one function.

    Section 3.4: "If a function F_i has k_i candidate components and the
    probing ratio is α, ACP will probe ⌈α · k_i⌉ candidate components."
    A positive ratio always probes at least one candidate.
    """
    if not 0.0 < probing_ratio <= 1.0:
        raise ValueError(f"probing ratio must be in (0, 1], got {probing_ratio}")
    if candidate_count < 0:
        raise ValueError(f"negative candidate count {candidate_count}")
    if candidate_count == 0:
        return 0
    budget = -(-probing_ratio * candidate_count // 1)  # ceil
    return max(1, int(budget))
