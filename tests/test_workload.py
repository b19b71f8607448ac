"""Unit tests for workload generation."""

import math

import pytest

from repro.model.functions import FunctionCatalog
from repro.model.templates import TemplateLibrary
from repro.simulation.workload import (
    QOS_LEVELS,
    QoSLevel,
    RateSchedule,
    WorkloadGenerator,
    WorkloadProfile,
)


@pytest.fixture(scope="module")
def templates():
    return TemplateLibrary(FunctionCatalog(size=20), size=6, seed=2)


def generator(templates, rate=60.0, level="normal", seed=0):
    return WorkloadGenerator(
        templates,
        RateSchedule.constant(rate),
        qos_level=QOS_LEVELS[level],
        seed=seed,
    )


class TestRateSchedule:
    def test_constant(self):
        schedule = RateSchedule.constant(40.0)
        assert schedule.rate_at(0.0) == 40.0
        assert schedule.rate_at(1e6) == 40.0

    def test_steps(self):
        schedule = RateSchedule.steps((0.0, 40.0), (100.0, 80.0), (200.0, 60.0))
        assert schedule.rate_at(0.0) == 40.0
        assert schedule.rate_at(99.9) == 40.0
        assert schedule.rate_at(100.0) == 80.0
        assert schedule.rate_at(250.0) == 60.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at time 0"):
            RateSchedule.steps((10.0, 40.0))

    def test_rates_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RateSchedule.steps((0.0, 0.0))

    def test_sorted_segments(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSchedule.steps((0.0, 10.0), (50.0, 20.0), (25.0, 30.0))

    def test_duplicate_starts_rejected(self):
        # a duplicate start silently shadowed the earlier rate before the
        # strict validation; now it is a hard error
        with pytest.raises(ValueError, match="strictly increasing"):
            RateSchedule.steps((0.0, 10.0), (50.0, 20.0), (50.0, 30.0))

    def test_next_change_after(self):
        schedule = RateSchedule.steps((0.0, 40.0), (100.0, 80.0), (200.0, 60.0))
        assert schedule.next_change_after(0.0) == 100.0
        assert schedule.next_change_after(99.9) == 100.0
        assert schedule.next_change_after(100.0) == 200.0
        assert schedule.next_change_after(200.0) is None
        assert schedule.next_change_after(1e9) is None
        assert RateSchedule.constant(40.0).next_change_after(0.0) is None

    def test_rate_at_matches_naive_scan(self):
        """Property: the bisect lookup equals the linear scan it replaced."""
        from hypothesis import given, strategies as st

        @given(
            starts=st.lists(
                st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
                min_size=0,
                max_size=8,
                unique=True,
            ),
            rates=st.lists(
                st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
                min_size=9,
                max_size=9,
            ),
            queries=st.lists(
                st.floats(min_value=-10.0, max_value=2e5, allow_nan=False),
                min_size=1,
                max_size=20,
            ),
        )
        def check(starts, rates, queries):
            times = [0.0] + sorted(starts)
            segments = tuple(zip(times, rates))
            schedule = RateSchedule(segments)
            for q in queries:
                naive = segments[0][1]
                for start, rate in segments:
                    if q >= start:
                        naive = rate
                    else:
                        break
                assert schedule.rate_at(q) == naive

        check()


class TestRateStepRegression:
    """The interarrival fix: arrivals immediately after a schedule step
    must occur at the *new* rate (boundary-truncated redraw).  Both tests
    fail on the pre-fix code, which drew the whole gap at the old rate."""

    def _arrivals(self, templates, schedule, horizon, seed=0):
        gen = WorkloadGenerator(templates, schedule, seed=seed)
        times, now = [], 0.0
        while True:
            now += gen.next_interarrival(now)
            if now > horizon:
                return times
            times.append(now)

    def test_arrival_count_just_after_step_up(self, templates):
        # 1 req/min until t=50, then 6000 req/min (100 req/s).  The gap in
        # flight at t=50 spans the step; pre-fix it kept the 1 req/min rate
        # (mean 60 s), so the window (50, 60] saw ~0 arrivals instead of
        # ~1000.
        schedule = RateSchedule.steps((0.0, 1.0), (50.0, 6000.0))
        times = self._arrivals(templates, schedule, horizon=60.0, seed=21)
        after_step = [t for t in times if 50.0 < t <= 60.0]
        assert len(after_step) > 500

    def test_gap_spanning_step_down_feels_new_rate(self, templates):
        # 60 req/min until t=10, then 0.006 req/min (mean gap ~1e4 s).  The
        # first arrival past the boundary must land far beyond it; pre-fix
        # it arrived within a few seconds, still at the old rate.
        schedule = RateSchedule.steps((0.0, 60.0), (10.0, 0.006))
        gen = WorkloadGenerator(templates, schedule, seed=22)
        now = 0.0
        while now <= 10.0:
            now += gen.next_interarrival(now)
        assert now > 100.0

    def test_flat_schedule_stream_unchanged(self, templates):
        """On a constant schedule the fix makes exactly one rng draw, so
        the arrival stream is byte-identical to a direct expovariate
        sequence — flat-Poisson experiments replay unchanged."""
        import random as _random

        gen = WorkloadGenerator(templates, RateSchedule.constant(60.0), seed=23)
        reference = _random.Random(23)
        now = 0.0
        for _ in range(200):
            gap = gen.next_interarrival(now)
            assert gap == reference.expovariate(1.0)
            now += gap


class TestArrivals:
    def test_mean_interarrival_matches_rate(self, templates):
        gen = generator(templates, rate=60.0, seed=1)
        samples = [gen.next_interarrival(0.0) for _ in range(4000)]
        # 60 req/min = 1 req/s
        assert sum(samples) / len(samples) == pytest.approx(1.0, rel=0.1)


class TestRequestAttributes:
    def test_requirements_within_profile(self, templates):
        gen = generator(templates, seed=3)
        profile = gen.profile
        ids = []
        for _ in range(100):
            request = gen.make_request(0.0)
            ids.append(request.request_id)
            for index in range(len(request.function_graph)):
                requirement = request.requirement_for(index)
                assert (
                    profile.cpu_requirement[0]
                    <= requirement["cpu"]
                    <= profile.cpu_requirement[1]
                )
                assert (
                    profile.memory_requirement[0]
                    <= requirement["memory"]
                    <= profile.memory_requirement[1]
                )
            assert (
                profile.session_duration_s[0]
                <= request.duration
                <= profile.session_duration_s[1]
            )
            assert (
                profile.stream_rate[0]
                <= request.stream_rate
                <= profile.stream_rate[1]
            )
        # request ids are unique and increasing
        assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_session_duration_is_5_to_15_minutes(self, templates):
        gen = generator(templates, seed=4)
        durations = [gen.make_request(0.0).duration for _ in range(200)]
        assert min(durations) >= 300.0
        assert max(durations) <= 900.0

    def test_tighter_level_means_tighter_budgets(self, templates):
        graph = templates[0].graph
        budgets = {}
        for level in ("loose", "normal", "high", "very_high"):
            gen = WorkloadGenerator(
                templates,
                RateSchedule.constant(60.0),
                qos_level=QOS_LEVELS[level],
                profile=WorkloadProfile(qos_jitter=(1.0, 1.0)),
                seed=5,
            )
            budgets[level] = gen.qos_requirement_for(graph)
        assert (
            budgets["very_high"].delay
            < budgets["high"].delay
            < budgets["normal"].delay
            < budgets["loose"].delay
        )
        assert (
            budgets["very_high"].loss_rate
            < budgets["high"].loss_rate
            < budgets["normal"].loss_rate
        )

    def test_budget_scales_with_path_length(self, templates):
        gen = WorkloadGenerator(
            templates,
            RateSchedule.constant(60.0),
            profile=WorkloadProfile(qos_jitter=(1.0, 1.0)),
            seed=6,
        )
        graphs = sorted(
            (t.graph for t in templates.templates),
            key=lambda g: max(len(p) for p in g.all_paths()),
        )
        short, long = graphs[0], graphs[-1]
        if max(len(p) for p in short.all_paths()) < max(
            len(p) for p in long.all_paths()
        ):
            assert (
                gen.qos_requirement_for(short).delay
                < gen.qos_requirement_for(long).delay
            )

    def test_loss_budget_additive_in_log_space(self, templates):
        """The loss budget corresponds to the slack-scaled sum of expected
        per-stage -log(1-p) costs."""
        gen = WorkloadGenerator(
            templates,
            RateSchedule.constant(60.0),
            qos_level=QoSLevel("unit", delay_slack=1.0, loss_slack=1.0),
            profile=WorkloadProfile(qos_jitter=(1.0, 1.0)),
            seed=7,
        )
        graph = templates[0].graph
        stages = max(len(p) for p in graph.all_paths())
        requirement = gen.qos_requirement_for(graph)
        expected_log = stages * -math.log1p(
            -gen.profile.expected_component_loss
        ) + (stages - 1) * -math.log1p(-gen.profile.expected_link_loss)
        assert -math.log1p(-requirement.loss_rate) == pytest.approx(expected_log)

    def test_bandwidth_requirements_follow_stream_rate(self, templates):
        gen = generator(templates, seed=8)
        request = gen.make_request(0.0)
        edge_rates = request.function_graph.edge_rates(request.stream_rate)
        for edge, rate in edge_rates.items():
            assert request.bandwidth_for(edge) == pytest.approx(
                rate * gen.profile.kbps_per_unit
            )

    def test_invalid_qos_level(self):
        with pytest.raises(ValueError, match="positive"):
            QoSLevel("bad", delay_slack=0.0, loss_slack=1.0)
