"""Ablation: coarse-grain global state granularity.

DESIGN.md calls out the hybrid approach's central design choice — how
coarse the global state may be.  Two knobs:

* the threshold fraction that gates update messages (paper default 10 %),
  swept from near-precise (1 %) to very coarse (50 %);
* value quantization (bucketised availability) on top of the default
  threshold.

Expected trade-off: tighter thresholds buy little extra success but cost
many more state-update messages; very coarse state starts to erode ACP's
guidance. The sweep regenerates the numbers behind that claim.
"""

import random

import pytest

from repro.core import ACPComposer
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

THRESHOLDS = (0.01, 0.1, 0.3, 0.5)
RATE = 80.0
SEED = 4


def run_point(threshold: float, quantization_levels=None):
    config = SystemConfig(
        num_routers=FAST_SCALE.num_routers,
        num_nodes=400,
        deployment=EVALUATION_DEPLOYMENT,
        state_threshold_fraction=threshold,
        seed=SEED,
    )
    system = build_system(config)
    if quantization_levels is not None:
        system.global_state.quantization_levels = quantization_levels
        system.global_state.force_refresh()
    workload = WorkloadGenerator(
        system.templates,
        RateSchedule.constant(RATE),
        qos_level=QOS_LEVELS["normal"],
        num_client_routers=config.num_routers,
        seed=SEED + 1000,
    )
    composer = ACPComposer(
        system.composition_context(rng=random.Random(SEED + 17)),
        probing_ratio=0.3,
    )
    simulator = StreamProcessingSimulator(
        system, composer, workload, sampling_period_s=FAST_SCALE.sampling_period_s
    )
    return simulator.run(FAST_SCALE.duration_s)


@pytest.fixture(scope="module")
def sweep():
    return {threshold: run_point(threshold) for threshold in THRESHOLDS}


def test_threshold_point_benchmark(benchmark, sweep):
    report = benchmark.pedantic(lambda: sweep[0.1], rounds=1, iterations=1)
    assert report.total_requests > 0


def test_threshold_tradeoff(sweep, publish, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [["threshold", "success (%)", "state msgs/min", "probes/min"]]
    for threshold, report in sorted(sweep.items()):
        rows.append(
            [
                f"{threshold:g}",
                f"{100 * report.success_rate:.1f}",
                f"{report.state_messages_per_min:.0f}",
                f"{report.probe_messages_per_min:.0f}",
            ]
        )
    publish("ablation_state_threshold", align_rows(rows))

    # state maintenance overhead falls monotonically with the threshold
    messages = [sweep[t].state_messages_per_min for t in sorted(sweep)]
    assert messages == sorted(messages, reverse=True)
    assert messages[0] > 2.0 * messages[-1]

    # success degrades monotonically-ish and gracefully: even a 50% drift
    # threshold costs ~20 points, not a collapse (measured ≈0.74 → 0.54)
    success = [sweep[t].success_rate for t in sorted(sweep)]
    assert success[0] >= success[-1]
    assert max(success) - min(success) < 0.30


def test_quantization_on_top_of_threshold(publish, benchmark):
    exact = run_point(0.1)
    quantized = benchmark.pedantic(
        lambda: run_point(0.1, quantization_levels=4), rounds=1, iterations=1
    )
    rows = [
        ["global state values", "success (%)", "state msgs/min"],
        [
            "exact",
            f"{100 * exact.success_rate:.1f}",
            f"{exact.state_messages_per_min:.0f}",
        ],
        [
            "4-level buckets",
            f"{100 * quantized.success_rate:.1f}",
            f"{quantized.state_messages_per_min:.0f}",
        ],
    ]
    publish("ablation_state_quantization", align_rows(rows))
    # bucketised guidance must not collapse ACP (graceful degradation)
    assert quantized.success_rate > exact.success_rate - 0.10
