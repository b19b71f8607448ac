"""Ablation: per-hop candidate ranking (risk vs congestion functions).

Section 3.5 ranks candidates by the risk function D(c) (Eq. 9) and breaks
near-ties with the congestion function W(c) (Eq. 10).  This ablation runs
ACP with each ranking in isolation:

* risk-only     — QoS-safe but load-blind: picks the lowest-risk hop even
  when an equally safe, idler one exists;
* congestion-only — load-aware but QoS-blind: happily walks into QoS dead
  ends under tight budgets;
* combined (the paper's scheme) — should dominate or match both.
"""

import random

import pytest

from repro.core import ACPComposer, RankingPolicy
from repro.experiments import EVALUATION_DEPLOYMENT, FAST_SCALE
from repro.experiments.reporting import align_rows
from repro.simulation import (
    QOS_LEVELS,
    RateSchedule,
    StreamProcessingSimulator,
    SystemConfig,
    WorkloadGenerator,
    build_system,
)

RATE = 80.0
SEED = 6


def run_point(ranking: RankingPolicy, qos_level="very_high"):
    config = SystemConfig(
        num_routers=FAST_SCALE.num_routers,
        num_nodes=400,
        deployment=EVALUATION_DEPLOYMENT,
        seed=SEED,
    )
    system = build_system(config)
    workload = WorkloadGenerator(
        system.templates,
        RateSchedule.constant(RATE),
        qos_level=QOS_LEVELS[qos_level],
        num_client_routers=config.num_routers,
        seed=SEED + 1000,
    )
    composer = ACPComposer(
        system.composition_context(rng=random.Random(SEED + 17)),
        probing_ratio=0.3,
    )
    composer.ranking_policy = ranking
    simulator = StreamProcessingSimulator(
        system, composer, workload, sampling_period_s=FAST_SCALE.sampling_period_s
    )
    return simulator.run(FAST_SCALE.duration_s)


@pytest.fixture(scope="module")
def sweep():
    return {
        policy: run_point(policy)
        for policy in (
            RankingPolicy.RISK_THEN_CONGESTION,
            RankingPolicy.RISK_ONLY,
            RankingPolicy.CONGESTION_ONLY,
        )
    }


def test_ranking_point_benchmark(benchmark, sweep):
    report = benchmark.pedantic(
        lambda: sweep[RankingPolicy.RISK_THEN_CONGESTION],
        rounds=1,
        iterations=1,
    )
    assert report.total_requests > 0


def test_ranking_ablation(sweep, publish, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [["per-hop ranking", "success (%)", "mean phi", "qos failures"]]
    for policy, report in sweep.items():
        qos_failures = report.failure_reasons.get(
            "qos_violation", 0
        ) + report.failure_reasons.get("no_qualified_composition", 0)
        rows.append(
            [
                policy.value,
                f"{100 * report.success_rate:.1f}",
                "-" if report.mean_phi is None else f"{report.mean_phi:.2f}",
                str(qos_failures),
            ]
        )
    publish("ablation_selection", align_rows(rows))

    combined = sweep[RankingPolicy.RISK_THEN_CONGESTION]
    risk_only = sweep[RankingPolicy.RISK_ONLY]
    congestion_only = sweep[RankingPolicy.CONGESTION_ONLY]
    # the congestion tie-break must add value over risk alone
    assert combined.success_rate >= risk_only.success_rate - 0.03
    # congestion-only can match or beat the combined scheme when QoS
    # budgets are not the binding constraint (a real finding, recorded in
    # EXPERIMENTS.md) — but it must not dominate it by a wide margin
    assert combined.success_rate >= congestion_only.success_rate - 0.12
    # and the load-aware tie-break buys better balance than risk alone
    if combined.mean_phi is not None and risk_only.mean_phi is not None:
        assert combined.mean_phi <= risk_only.mean_phi + 0.15
