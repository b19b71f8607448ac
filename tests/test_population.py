"""Unit tests for the population-scale workload model."""

import random

import pytest

from repro.model.functions import FunctionCatalog
from repro.model.templates import TemplateLibrary
from repro.simulation import population
from repro.simulation.population import (
    FAR_FUTURE_S,
    DiurnalCurve,
    PopulationProfile,
    PopulationWorkload,
    TrafficEvent,
    poisson_sample,
)
from repro.simulation.workload import RateSchedule, WorkloadGenerator


@pytest.fixture(scope="module")
def templates():
    return TemplateLibrary(FunctionCatalog(size=20), size=6, seed=2)


def make_inner(templates, seed=0, num_client_routers=100):
    return WorkloadGenerator(
        templates,
        RateSchedule.constant(60.0),
        seed=seed,
        num_client_routers=num_client_routers,
    )


class TestPoissonSample:
    def test_zero_mean(self):
        assert poisson_sample(random.Random(0), 0.0) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            poisson_sample(random.Random(0), -1.0)

    @pytest.mark.parametrize("mean", [0.5, 3.0, 12.0, 50.0, 400.0])
    def test_sample_moments(self, mean):
        rng = random.Random(42)
        n = 4000
        samples = [poisson_sample(rng, mean) for _ in range(n)]
        assert all(s >= 0 for s in samples)
        observed_mean = sum(samples) / n
        assert observed_mean == pytest.approx(mean, rel=0.1)
        variance = sum((s - observed_mean) ** 2 for s in samples) / n
        # Poisson: variance == mean (the normal approximation keeps this)
        assert variance == pytest.approx(mean, rel=0.25)

    def test_deterministic_per_stream(self):
        a = [poisson_sample(random.Random(9), 7.5) for _ in range(50)]
        b = [poisson_sample(random.Random(9), 7.5) for _ in range(50)]
        assert a == b


class TestDiurnalCurve:
    def test_interpolates_between_points(self):
        curve = DiurnalCurve(((0.0, 1.0), (100.0, 3.0)), period_s=200.0)
        assert curve.multiplier_at(0.0) == 1.0
        assert curve.multiplier_at(50.0) == pytest.approx(2.0)
        assert curve.multiplier_at(100.0) == 3.0
        # wraps: 100 -> 200 interpolates back toward the first point
        assert curve.multiplier_at(150.0) == pytest.approx(2.0)

    def test_periodic(self):
        curve = DiurnalCurve(((4.0 * 3600.0, 0.2), (15.0 * 3600.0, 1.0)))
        for t in (0.0, 3600.0, 50000.0):
            assert curve.multiplier_at(t) == pytest.approx(
                curve.multiplier_at(t + 86400.0)
            )

    def test_phase_before_first_point_wraps(self):
        curve = DiurnalCurve(((100.0, 2.0), (200.0, 4.0)), period_s=300.0)
        # at t=0 we are between the last point (200, 4.0) and the first
        # (100+300, 2.0): 100/200 of the way along
        assert curve.multiplier_at(0.0) == pytest.approx(3.0)

    def test_single_point_is_constant(self):
        curve = DiurnalCurve(((10.0, 1.5),), period_s=100.0)
        for t in (0.0, 10.0, 55.0, 99.0):
            assert curve.multiplier_at(t) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            DiurnalCurve(())
        with pytest.raises(ValueError, match="strictly increasing"):
            DiurnalCurve(((10.0, 1.0), (10.0, 2.0)))
        with pytest.raises(ValueError, match="non-negative"):
            DiurnalCurve(((0.0, -0.5),))
        with pytest.raises(ValueError, match=r"\[0,"):
            DiurnalCurve(((90000.0, 1.0),), period_s=86400.0)


class TestTrafficEvent:
    def test_ramp_plateau_decay(self):
        event = TrafficEvent(
            start_s=100.0, ramp_s=50.0, plateau_s=100.0, decay_s=50.0,
            peak_multiplier=5.0,
        )
        assert event.multiplier_at(0.0) == 1.0
        assert event.multiplier_at(99.9) == 1.0
        assert event.multiplier_at(125.0) == pytest.approx(3.0)  # mid-ramp
        assert event.multiplier_at(150.0) == 5.0
        assert event.multiplier_at(200.0) == 5.0
        assert event.multiplier_at(275.0) == pytest.approx(3.0)  # mid-decay
        assert event.multiplier_at(300.0) == 1.0
        assert event.end_s == 300.0

    def test_factories(self):
        flash = TrafficEvent.flash_crowd(start_s=10.0, peak_multiplier=4.0)
        assert flash.region is None
        spike = TrafficEvent.regional_spike(
            start_s=10.0, peak_multiplier=4.0, region=(0, 50)
        )
        assert spike.region == (0, 50)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            TrafficEvent(0.0, 10.0, 10.0, 10.0, peak_multiplier=0.5)
        with pytest.raises(ValueError, match="positive duration"):
            TrafficEvent(0.0, 0.0, 0.0, 0.0, peak_multiplier=2.0)
        with pytest.raises(ValueError, match="region"):
            TrafficEvent(0.0, 10.0, 10.0, 10.0, 2.0, region=(5, 5))


class TestPopulationProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            PopulationProfile(-1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            PopulationProfile(10.0, 0.0)
        with pytest.raises(ValueError, match="poisson"):
            PopulationProfile(10.0, 1.0, distribution="zipf")

    def test_scaled(self):
        profile = PopulationProfile(25.0, 2.0)
        assert profile.scaled(10.0).mean_active_users == 250.0
        assert profile.scaled(10.0).requests_per_user_per_min == 2.0
        with pytest.raises(ValueError, match="positive"):
            profile.scaled(0.0)


class TestPopulationWorkload:
    def test_steady_rate_matches_expectation(self, templates):
        profile = PopulationProfile(
            mean_active_users=50.0, requests_per_user_per_min=1.2
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=3)
        now, count = 0.0, 0
        while True:
            now += workload.next_interarrival(now)
            if now > 1200.0:
                break
            count += 1
        # expected 50 users x 1.2 req/min x 20 min = 1200 arrivals
        assert count == pytest.approx(1200, rel=0.15)

    def test_user_counts_memoized_and_in_order(self, templates):
        profile = PopulationProfile(
            mean_active_users=20.0, requests_per_user_per_min=1.0
        )
        a = PopulationWorkload(make_inner(templates), profile, seed=5)
        b = PopulationWorkload(make_inner(templates), profile, seed=5)
        # query out of order on one; the counts must match in-order queries
        assert a.users_in_window(7) == b.users_in_window(7)
        out_of_order = [a.users_in_window(i) for i in (3, 0, 7, 5)]
        in_order = [b.users_in_window(i) for i in (3, 0, 7, 5)]
        assert out_of_order == in_order
        # repeated queries are stable
        assert a.users_in_window(3) == out_of_order[0]

    def test_fixed_distribution(self, templates):
        profile = PopulationProfile(
            mean_active_users=12.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=1)
        assert all(workload.users_in_window(i) == 12 for i in range(10))

    def test_normal_distribution_spread(self, templates):
        profile = PopulationProfile(
            mean_active_users=1000.0,
            requests_per_user_per_min=1.0,
            distribution="normal",
            std_active_users=50.0,
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=1)
        counts = [workload.users_in_window(i) for i in range(200)]
        assert sum(counts) / len(counts) == pytest.approx(1000.0, rel=0.05)
        assert len(set(counts)) > 10  # actually varies

    def test_zero_population_returns_sentinel(self, templates):
        profile = PopulationProfile(
            mean_active_users=0.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=1)
        assert workload.next_interarrival(0.0) == FAR_FUTURE_S

    def test_diurnal_modulates_arrivals(self, templates):
        curve = DiurnalCurve(
            ((60.0, 0.1), (360.0, 2.0)), period_s=600.0
        )
        profile = PopulationProfile(
            mean_active_users=100.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
            diurnal=curve,
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=4)
        now, trough_count, peak_count = 0.0, 0, 0
        while True:
            now += workload.next_interarrival(now)
            if now > 600.0:
                break
            if 30.0 <= now < 90.0:
                trough_count += 1
            elif 330.0 <= now < 390.0:
                peak_count += 1
        assert peak_count > 5 * trough_count

    def test_flash_crowd_surges(self, templates):
        event = TrafficEvent.flash_crowd(
            start_s=200.0, peak_multiplier=8.0,
            ramp_s=20.0, plateau_s=100.0, decay_s=30.0,
        )
        profile = PopulationProfile(
            mean_active_users=60.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
            events=(event,),
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=6)
        now, before, during = 0.0, 0, 0
        while True:
            now += workload.next_interarrival(now)
            if now > 350.0:
                break
            if now < 200.0:
                before += 1
            elif 220.0 <= now < 320.0:
                during += 1
        # plateau rate is 8x the base; windows are 200 s vs 100 s
        assert during > 2.0 * before

    def test_regional_spike_rewrites_client_router(self, templates):
        spike = TrafficEvent.regional_spike(
            start_s=0.0, peak_multiplier=9.0, region=(0, 10),
            ramp_s=1.0, plateau_s=500.0, decay_s=1.0,
        )
        profile = PopulationProfile(
            mean_active_users=100.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
            events=(spike,),
        )
        workload = PopulationWorkload(
            make_inner(templates, num_client_routers=1000), profile, seed=7
        )
        now, regional, total = 10.0, 0, 0
        for _ in range(400):
            now += workload.next_interarrival(now)
            request = workload.make_request(now)
            total += 1
            if request.client_router_id < 10:
                regional += 1
        # at multiplier 9, 8/9 of arrivals are the spike's own traffic;
        # a uniform draw over 1000 routers lands in [0, 10) ~1% of the time
        assert regional / total > 0.6

    def test_region_exceeding_routers_rejected(self, templates):
        spike = TrafficEvent.regional_spike(
            start_s=0.0, peak_multiplier=2.0, region=(0, 500)
        )
        profile = PopulationProfile(
            mean_active_users=10.0,
            requests_per_user_per_min=1.0,
            events=(spike,),
        )
        with pytest.raises(ValueError, match="client routers"):
            PopulationWorkload(
                make_inner(templates, num_client_routers=100), profile, seed=0
            )

    def test_same_seed_replays_byte_identically(self, templates):
        event = TrafficEvent.regional_spike(
            start_s=100.0, peak_multiplier=4.0, region=(0, 20),
            ramp_s=10.0, plateau_s=60.0, decay_s=20.0,
        )
        profile = PopulationProfile(
            mean_active_users=40.0,
            requests_per_user_per_min=1.5,
            diurnal=DiurnalCurve(((0.0, 0.5), (300.0, 1.5)), period_s=600.0),
            events=(event,),
        )

        def run(seed):
            workload = PopulationWorkload(
                make_inner(templates, seed=11), profile, seed=seed
            )
            trace, now = [], 0.0
            for _ in range(300):
                now += workload.next_interarrival(now)
                request = workload.make_request(now)
                trace.append((now, request.request_id, request.client_router_id))
            return trace

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_population_stream_does_not_perturb_inner(self, templates):
        """Attaching a population must not change what the inner generator
        draws for request attributes: same inner seed, same contents."""
        profile = PopulationProfile(
            mean_active_users=30.0, requests_per_user_per_min=2.0
        )
        plain = make_inner(templates, seed=20)
        wrapped_inner = make_inner(templates, seed=20)
        workload = PopulationWorkload(wrapped_inner, profile, seed=99)
        for i in range(50):
            a = plain.make_request(float(i))
            b = workload.make_request(float(i))
            assert a.stream_rate == b.stream_rate
            assert a.duration == b.duration
            assert a.qos_requirement == b.qos_requirement
            assert a.client_router_id == b.client_router_id

    def test_interarrival_walk_terminates_on_long_idle(self, templates):
        """A population whose curve is zero everywhere can never arrive:
        it yields the sentinel at once instead of walking to the cut."""
        curve = DiurnalCurve(((0.0, 0.0),), period_s=600.0)  # always zero
        profile = PopulationProfile(
            mean_active_users=50.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
            diurnal=curve,
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=2)
        assert workload.next_interarrival(0.0) == FAR_FUTURE_S

    @pytest.mark.parametrize(
        "distribution,mean,std",
        [("poisson", 0.0, None), ("fixed", 0.4, None),
         ("normal", 0.0, None), ("normal", 0.3, 0.0)],
    )
    def test_user_process_that_only_draws_zero_never_arrives(
        self, templates, distribution, mean, std
    ):
        profile = PopulationProfile(
            mean_active_users=mean,
            requests_per_user_per_min=1.0,
            distribution=distribution,
            std_active_users=std,
        )
        workload = PopulationWorkload(make_inner(templates), profile, seed=2)
        assert workload.next_interarrival(0.0) == FAR_FUTURE_S

    def test_zero_stretch_longer_than_the_cut_still_reaches_it(
        self, templates, monkeypatch
    ):
        """A curve that is zero only for a while is walked slot by slot:
        past the cut it yields the sentinel, within it the first arrival
        after the zero stretch."""
        curve = DiurnalCurve(
            ((0.0, 0.0), (500.0, 0.0), (600.0, 1.0)), period_s=1000.0
        )
        profile = PopulationProfile(
            mean_active_users=50.0,
            requests_per_user_per_min=1.0,
            distribution="fixed",
            diurnal=curve,
        )
        gap = PopulationWorkload(
            make_inner(templates), profile, seed=2
        ).next_interarrival(0.0)
        assert 500.0 < gap < 1000.0
        monkeypatch.setattr(population, "_MAX_WALK_S", 200.0)
        workload = PopulationWorkload(make_inner(templates), profile, seed=2)
        assert workload.next_interarrival(0.0) == FAR_FUTURE_S


class TestRunnerIntegration:
    def test_spec_population_drives_simulation(self):
        import dataclasses

        from repro.discovery.deployment import DeploymentProfile
        from repro.experiments.config import ExperimentScale, default_spec
        from repro.experiments.runner import run_spec

        scale = ExperimentScale(
            name="pop-tiny",
            num_routers=120,
            duration_s=240.0,
            adaptability_duration_s=240.0,
            sampling_period_s=60.0,
            optimal_max_explored=3000,
        )
        profile = PopulationProfile(
            mean_active_users=20.0, requests_per_user_per_min=1.5
        )
        spec = default_spec(
            scale=scale, num_nodes=40, rate_per_min=30.0, seed=3
        ).with_population(profile)
        spec = dataclasses.replace(
            spec,
            system=dataclasses.replace(
                spec.system,
                deployment=DeploymentProfile(components_per_node=(2, 3)),
            ),
        )
        report = run_spec(spec)
        # ~20 x 1.5 x 4 = 120 expected arrivals
        assert 40 < report.total_requests < 260
        assert len(report.window_samples) == 4
        assert report.peak_open_sessions > 0
        # successful runs must produce setup-latency percentiles
        if report.successes:
            assert report.p50_setup_latency_ms is not None
            assert report.p99_setup_latency_ms >= report.p50_setup_latency_ms
