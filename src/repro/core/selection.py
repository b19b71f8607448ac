"""Per-hop candidate selection (Section 3.5): its vocabulary.

When a probe reaches a component, the hosting node must decide which
next-hop candidate components to spawn probes for, under the probing ratio
constraint M = ⌈α·k⌉.  The paper's scheme:

1. filter out interface-incompatible candidates (format / stream rate);
2. filter out *unqualified* candidates by Eqs. 6–8 using the coarse-grain
   global state (QoS bound already blown; node resources short; virtual
   link bandwidth short);
3. rank the qualified candidates by the risk function D(c) of Eq. 9 —
   smaller maximum QoS-violation risk first — breaking near-ties with the
   congestion function W(c) of Eq. 10 — less-loaded first — and keep the
   best M.

The production path scores and ranks whole levels at once
(:mod:`repro.core.fastscore`); the scalar one-candidate-at-a-time form of
Eqs. 6–10 is its test oracle (``tests/oracles/scalar_scorer.py``).  This
module keeps what both share: the probe budget M, the ranking knob, the
risk tie width and the scored-candidate record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.model.component import Component
from repro.model.qos import QoSVector

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


class RankingPolicy(enum.Enum):
    """What the per-hop top-M ranking orders on (ablation knob).

    The paper's scheme is :attr:`RISK_THEN_CONGESTION`; the other two
    isolate the contribution of each function for the selection ablation.
    """

    RISK_THEN_CONGESTION = "risk_then_congestion"
    RISK_ONLY = "risk_only"
    CONGESTION_ONLY = "congestion_only"


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
