"""Integration tests: full simulations, cross-module invariants."""

import random

import pytest

from repro.core import (
    ACPComposer,
    OptimalComposer,
    RandomComposer,
    RandomProbingComposer,
    SelectiveProbingComposer,
    StaticComposer,
)
from repro.core.tuning import ProbingRatioTuner
from repro.simulation.simulator import StreamProcessingSimulator
from repro.simulation.workload import QOS_LEVELS, RateSchedule, WorkloadGenerator
from tests.conftest import build_small_system

COMPOSER_MAKERS = {
    "ACP": lambda ctx: ACPComposer(ctx, probing_ratio=0.5),
    "Optimal": lambda ctx: OptimalComposer(ctx, max_explored=5000),
    "SP": lambda ctx: SelectiveProbingComposer(ctx, probing_ratio=0.5),
    "RP": lambda ctx: RandomProbingComposer(ctx, probing_ratio=0.5),
    "Random": lambda ctx: RandomComposer(ctx),
    "Static": lambda ctx: StaticComposer(ctx),
}


def run_simulation(name, duration_s=900.0, rate=20.0, seed=4, tuner=None):
    system = build_small_system(seed=seed, num_nodes=12)
    workload = WorkloadGenerator(
        system.templates,
        RateSchedule.constant(rate),
        qos_level=QOS_LEVELS["normal"],
        num_client_routers=system.config.num_routers,
        seed=seed + 50,
    )
    context = system.composition_context(rng=random.Random(seed))
    composer = COMPOSER_MAKERS[name](context)
    simulator = StreamProcessingSimulator(
        system, composer, workload, sampling_period_s=300.0, tuner=tuner
    )
    report = simulator.run(duration_s)
    return system, simulator, report


class TestEndToEndRuns:
    @pytest.mark.parametrize("name", sorted(COMPOSER_MAKERS))
    def test_simulation_completes_and_accounts(self, name):
        system, simulator, report = run_simulation(name)
        assert report.algorithm == COMPOSER_MAKERS[name](
            system.composition_context()
        ).name
        assert report.total_requests > 0
        assert 0.0 <= report.success_rate <= 1.0
        assert report.successes == sum(
            1 for r in simulator.metrics.records if r.success
        )
        failures = report.total_requests - report.successes
        assert sum(report.failure_reasons.values()) == failures

    @pytest.mark.parametrize("name", ["ACP", "Optimal", "Random"])
    def test_no_resource_leaks_after_all_sessions_close(self, name):
        """After the horizon plus the longest session, every node and link
        must be back at full capacity."""
        system, simulator, _report = run_simulation(name, duration_s=600.0)
        # drain every pending session-close event
        simulator.scheduler.run_until(600.0 + 1000.0)
        system.allocator.expire_due(simulator.scheduler.now)
        assert simulator.sessions.active_session_count == 0
        for node in system.network.nodes:
            assert all(
                abs(v) < 1e-6 for v in node.allocated.values
            ), f"leak on {node!r}"
        for link in system.network.links:
            assert link.allocated_kbps == pytest.approx(0.0, abs=1e-6), (
                f"leak on {link!r}"
            )
        assert system.allocator.transient_request_ids == ()

    def test_same_seed_same_result(self):
        _, _, first = run_simulation("ACP", seed=6)
        _, _, second = run_simulation("ACP", seed=6)
        assert first.total_requests == second.total_requests
        assert first.successes == second.successes
        assert first.probe_messages == second.probe_messages

    def test_different_seeds_differ(self):
        _, _, first = run_simulation("ACP", seed=6)
        _, _, second = run_simulation("ACP", seed=7)
        assert (
            first.total_requests != second.total_requests
            or first.probe_messages != second.probe_messages
        )


class TestAlgorithmRelationships:
    def test_probing_algorithms_report_probe_overhead(self):
        for name in ("ACP", "SP", "RP", "Optimal"):
            _, _, report = run_simulation(name, duration_s=600.0)
            assert report.probe_messages > 0, name

    def test_one_shot_algorithms_send_no_probes(self):
        for name in ("Random", "Static"):
            _, _, report = run_simulation(name, duration_s=600.0)
            assert report.probe_messages == 0, name

    def test_optimal_overhead_dominates_acp(self):
        _, _, optimal = run_simulation("Optimal", duration_s=600.0)
        _, _, acp = run_simulation("ACP", duration_s=600.0)
        # the gap is modest on a 12-node system (k ≈ 2-3 candidates per
        # function) and grows with system size — Fig. 7(b)'s point
        assert optimal.probe_messages > acp.probe_messages

    def test_acp_beats_static_on_success(self):
        _, _, acp = run_simulation("ACP", duration_s=900.0, rate=30.0)
        _, _, static = run_simulation("Static", duration_s=900.0, rate=30.0)
        assert acp.success_rate > static.success_rate


class TestAdaptiveTuning:
    def test_tuner_drives_ratio_from_samples(self):
        tuner = ProbingRatioTuner(target_success_rate=0.99, base_ratio=0.1)
        _, simulator, report = run_simulation(
            "ACP", duration_s=1500.0, rate=40.0, tuner=tuner
        )
        assert len(tuner.samples) >= 4
        # under a 99% target with real load the tuner must have moved
        assert any(s.ratio > 0.1 for s in tuner.samples) or all(
            s.success_rate > 0.97 for s in tuner.samples
        )
        ratios = [s.probing_ratio for s in report.window_samples]
        assert all(r is not None for r in ratios)

    def test_tuner_requires_acp(self):
        system = build_small_system(seed=1)
        workload = WorkloadGenerator(
            system.templates, RateSchedule.constant(10.0), seed=0
        )
        composer = RandomComposer(system.composition_context())
        with pytest.raises(ValueError, match="ACP"):
            StreamProcessingSimulator(
                system, composer, workload, tuner=ProbingRatioTuner()
            )


class TestGlobalStateDuringSimulation:
    def test_state_updates_flow(self):
        system, _, report = run_simulation("ACP", duration_s=900.0, rate=30.0)
        assert report.state_update_messages > 0
        # drift is bounded by the threshold at reporting instants, but can
        # accumulate slightly between changes; sanity-bound it
        assert system.global_state.max_drift_fraction() <= 0.5

    def test_aggregation_rounds_ran(self):
        system, _, report = run_simulation("ACP", duration_s=1300.0)
        # default aggregation period is 600 s -> 2 rounds in 1300 s
        assert system.aggregation.rounds == 2
        assert report.aggregation_messages == 2 * (len(system.network) - 1)
