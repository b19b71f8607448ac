"""Composition algorithms: ACP, the optimal baseline, and heuristics.

The paper's contribution (adaptive composition probing with hierarchical
state management and probing-ratio self-tuning) plus every algorithm its
evaluation compares against.
"""

from repro.core.acp import ACPComposer
from repro.core.baselines import (
    RandomComposer,
    RandomProbingComposer,
    SelectiveProbingComposer,
    StaticComposer,
)
from repro.core.composer import (
    Composer,
    CompositionContext,
    CompositionEvaluator,
    CompositionOutcome,
)
from repro.core.control import (
    ControlChannel,
    LossyControlChannel,
    PerfectControlChannel,
    delay_slack_ms,
)
from repro.core.fastscore import FastScorer, LevelPool
from repro.core.optimal import OptimalComposer
from repro.core.probe import Probe, ProbeFactory
from repro.core.prober import (
    FinalSelectionPolicy,
    HopSelectionPolicy,
    ProbingComposer,
)
from repro.core.selection import (
    RISK_TIE_EPSILON,
    RankingPolicy,
    ScoredCandidate,
    probe_budget,
)
from repro.core.tuning import ProbingRatioTuner, TunerSample
from repro.core.tuning_pid import PIDRatioTuner

__all__ = [
    "ACPComposer",
    "Composer",
    "CompositionContext",
    "CompositionEvaluator",
    "CompositionOutcome",
    "ControlChannel",
    "LossyControlChannel",
    "PerfectControlChannel",
    "delay_slack_ms",
    "FastScorer",
    "LevelPool",
    "OptimalComposer",
    "ProbingComposer",
    "HopSelectionPolicy",
    "FinalSelectionPolicy",
    "RandomComposer",
    "StaticComposer",
    "SelectiveProbingComposer",
    "RandomProbingComposer",
    "Probe",
    "ProbeFactory",
    "ProbingRatioTuner",
    "PIDRatioTuner",
    "TunerSample",
    "ScoredCandidate",
    "RankingPolicy",
    "probe_budget",
    "RISK_TIE_EPSILON",
]
