"""End-to-end determinism: same seed, byte-identical results.

The companion to ``repro.analysis``'s static rules — the dynamic check
that the whole stack (topology build, deployment, workload, probing,
failures, adaptive tuning, reporting) is a pure function of the spec's
seeds.  ``repr`` on the report dataclasses captures every float bit, so
equality here is byte-identity of everything an experiment publishes.
"""

import dataclasses

from repro.discovery.deployment import DeploymentProfile
from repro.experiments.config import ExperimentScale, default_spec
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.reporting import format_arms_table
from repro.experiments.runner import run_spec
from repro.middleware.session import RecoveryPolicy
from repro.simulation.failures import FaultPlan
from repro.simulation.workload import RateSchedule

_SCALE = ExperimentScale(
    name="determinism-tiny",
    num_routers=120,
    duration_s=240.0,
    adaptability_duration_s=540.0,
    sampling_period_s=60.0,
    optimal_max_explored=3000,
)


def _spec(algorithm="ACP", seed=7, adaptive=False):
    spec = default_spec(
        scale=_SCALE,
        algorithm=algorithm,
        num_nodes=40,
        rate_per_min=30.0,
        seed=seed,
    )
    return dataclasses.replace(
        spec,
        adaptive=adaptive,
        system=dataclasses.replace(
            spec.system, deployment=DeploymentProfile(components_per_node=(2, 3))
        ),
    )


class TestSameSeedByteIdentical:
    def test_two_runs_produce_byte_identical_reports(self):
        first = run_spec(_spec())
        second = run_spec(_spec())
        assert repr(first) == repr(second)
        columns = EXPERIMENTS["compare"].view.columns
        assert format_arms_table("", "", columns, [("", first)]) == (
            format_arms_table("", "", columns, [("", second)])
        )

    def test_adaptive_run_replays_exactly(self):
        # the tuner feedback loop folds measured rates back into decisions;
        # a single unseeded draw or unordered iteration anywhere upstream
        # would fan out into different probing ratios here
        spec = dataclasses.replace(
            _spec(adaptive=True),
            schedule=RateSchedule.steps(
                (0.0, 20.0), (120.0, 60.0), (300.0, 30.0)
            ),
        )
        first = run_spec(spec)
        second = run_spec(spec)
        assert repr(first) == repr(second)

    def test_different_seeds_actually_differ(self):
        # guard against the degenerate fix: everything pinned to one stream
        first = run_spec(_spec(seed=7))
        second = run_spec(_spec(seed=8))
        assert repr(first) != repr(second)


#: The full cocktail at unit-test scale: node and link churn, lossy and
#: delayed probes, and state-update loss, all drawing from seed-derived
#: streams.
_COCKTAIL = FaultPlan(
    node_fail_probability=0.05,
    node_recover_probability=0.5,
    link_fail_probability=0.03,
    link_recover_probability=0.5,
    probe_loss_probability=0.05,
    probe_delay_ms=1.0,
    max_probe_retries=2,
    state_update_loss_probability=0.10,
    period_s=30.0,
)


class TestFaultDeterminism:
    def test_fault_cocktail_replays_exactly(self):
        """Same seed + same FaultPlan ⇒ byte-identical run reports.

        Every fault stream (churn, probe loss, state-update loss) must be
        a pure function of the spec's seeds — one draw from a shared or
        unseeded stream anywhere would diverge here."""
        spec = _spec().with_faults(
            _COCKTAIL, RecoveryPolicy(recovery_deadline_s=20.0)
        )
        first = run_spec(spec)
        second = run_spec(spec)
        assert repr(first) == repr(second)
        assert first.sessions_disrupted > 0  # the cocktail actually bit

    def test_zero_fault_plan_is_decision_identical(self):
        """A zero FaultPlan must not wire anything: the run is
        byte-identical to a spec with no fault machinery at all (the
        CI-enforced differential of the fault-model expansion)."""
        plain = run_spec(_spec())
        zeroed = run_spec(_spec().with_faults(FaultPlan.none()))
        assert repr(plain) == repr(zeroed)

    def test_recovery_policy_changes_outcomes_not_determinism(self):
        """Recovery alters the trajectory (sessions survive) but each
        variant must itself replay exactly."""
        killed = run_spec(_spec().with_faults(_COCKTAIL))
        recovered = run_spec(
            _spec().with_faults(_COCKTAIL, RecoveryPolicy())
        )
        assert repr(killed) != repr(recovered)
        assert killed.sessions_recovered == 0
        assert recovered.sessions_killed <= killed.sessions_killed


class TestPopulationDeterminism:
    """The population layer draws from its own seed-derived streams
    (workload_seed + 43 and two internal sub-streams); same-seed runs
    must be byte-identical and different seeds must actually diverge."""

    @staticmethod
    def _population_spec(seed=7):
        from repro.simulation.population import (
            DiurnalCurve,
            PopulationProfile,
            TrafficEvent,
        )

        profile = PopulationProfile(
            mean_active_users=15.0,
            requests_per_user_per_min=2.0,
            diurnal=DiurnalCurve(((0.0, 0.5), (120.0, 1.5)), period_s=240.0),
            events=(
                TrafficEvent.regional_spike(
                    start_s=60.0, peak_multiplier=4.0, region=(0, 30),
                    ramp_s=10.0, plateau_s=60.0, decay_s=20.0,
                ),
            ),
        )
        return _spec(seed=seed).with_population(profile)

    def test_population_run_replays_exactly(self):
        first = run_spec(self._population_spec())
        second = run_spec(self._population_spec())
        assert repr(first) == repr(second)
        assert first.total_requests > 0

    def test_population_different_seeds_differ(self):
        first = run_spec(self._population_spec(seed=7))
        second = run_spec(self._population_spec(seed=8))
        assert repr(first) != repr(second)

    def test_population_independent_of_base_schedule(self):
        """spec.population overrides the RateSchedule entirely: changing
        the (ignored) schedule must not perturb a population run."""
        base = self._population_spec()
        rescheduled = dataclasses.replace(
            base, schedule=RateSchedule.constant(999.0)
        )
        assert repr(run_spec(base)) == repr(run_spec(rescheduled))
