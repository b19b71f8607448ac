"""Tests for the experiment harness (specs, runner, registry, reporting).

Registry entries are exercised at a tiny custom scale so the whole file
stays fast; the committed-scale runs live in benchmarks/.
"""

import dataclasses

import pytest

from repro.discovery.deployment import DeploymentProfile
from repro.experiments.config import (
    ALGORITHMS,
    ExperimentScale,
    FAST_SCALE,
    PAPER_SCALE,
    default_spec,
)
from repro.experiments.figures import Fig8Result, FigureResult, Series
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.reporting import (
    format_arms_table,
    format_fig8_table,
    format_figure_table,
)
from repro.experiments.runner import make_composer, run_spec
from repro.simulation.system import SystemConfig
from repro.simulation.workload import RateSchedule

TINY_SCALE = ExperimentScale(
    name="tiny",
    num_routers=120,
    duration_s=240.0,
    adaptability_duration_s=540.0,
    sampling_period_s=60.0,
    optimal_max_explored=3000,
)


def tiny_spec(algorithm="ACP", rate=30.0, seed=1):
    spec = default_spec(
        scale=TINY_SCALE, algorithm=algorithm, num_nodes=40, rate_per_min=rate,
        seed=seed,
    )
    return dataclasses.replace(
        spec,
        system=dataclasses.replace(
            spec.system, deployment=DeploymentProfile(components_per_node=(2, 3))
        ),
    )


class TestRunSpec:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            tiny_spec(algorithm="Dijkstra")

    def test_adaptive_requires_acp(self):
        spec = tiny_spec(algorithm="Random")
        with pytest.raises(ValueError, match="only ACP"):
            dataclasses.replace(spec, adaptive=True)

    def test_with_helpers(self):
        spec = tiny_spec()
        assert spec.with_rate(99.0).schedule.rate_at(0) == 99.0
        assert spec.with_ratio(0.7).probing_ratio == 0.7
        assert spec.with_qos("high").qos_level.name == "high"
        assert spec.with_algorithm("Static").algorithm == "Static"

    def test_scales_expose_paper_defaults(self):
        assert PAPER_SCALE.num_routers == 3200
        assert PAPER_SCALE.duration_s == 6000.0
        assert FAST_SCALE.num_routers < PAPER_SCALE.num_routers

    def test_scale_system_builds_config(self):
        config = FAST_SCALE.system(num_nodes=123, seed=9)
        assert isinstance(config, SystemConfig)
        assert config.num_nodes == 123
        assert config.seed == 9


class TestRunner:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_make_composer_names_match(self, algorithm, small_system):
        context = small_system.composition_context()
        composer = make_composer(tiny_spec(algorithm=algorithm), context)
        assert composer.name == algorithm

    def test_run_spec_end_to_end(self):
        report = run_spec(tiny_spec())
        assert report.algorithm == "ACP"
        assert report.total_requests > 0
        assert 0.0 <= report.success_rate <= 1.0


class TestFigureHarnesses:
    def test_fig5a_tiny(self):
        outcome = EXPERIMENTS["fig5a"].run(
            scale=TINY_SCALE, num_nodes=80, seed=1, rates=(30.0,),
            ratios=(0.2, 1.0),
        )
        (result,) = outcome.figures
        assert isinstance(result, FigureResult)
        series = result.series["30 reqs/min"]
        assert series.xs() == (0.2, 1.0)
        assert all(0.0 <= y <= 1.0 for y in series.ys())

    def test_fig6_tiny(self):
        success, overhead = EXPERIMENTS["fig6"].run(
            scale=TINY_SCALE, num_nodes=80, seed=1, rates=(30.0,),
            algorithms=("ACP", "RP"),
        ).figures
        assert set(success.series) == {"ACP", "RP"}
        assert set(overhead.series) == {"ACP", "RP"}

    def test_fig8_tiny(self):
        fixed, adaptive = EXPERIMENTS["fig8"].run(
            scale=TINY_SCALE, num_nodes=80, seed=1
        ).figures
        assert isinstance(fixed, Fig8Result)
        assert fixed.target_success_rate is None
        assert adaptive.target_success_rate is not None
        assert len(fixed.samples) >= 3
        # the schedule steps at thirds of the horizon
        assert fixed.schedule.rate_at(0.0) == 40.0
        assert fixed.schedule.rate_at(TINY_SCALE.adaptability_duration_s) == 60.0


class TestReporting:
    def test_figure_table_layout(self):
        result = FigureResult(
            "6a",
            "request rate",
            "success rate (%)",
            {
                "ACP": Series("ACP", ((20.0, 0.9), (40.0, 0.8))),
                "Static": Series("Static", ((20.0, 0.5),)),
            },
        )
        table = format_figure_table(result)
        assert "Figure 6a" in table
        lines = table.splitlines()
        assert "ACP" in lines[1] and "Static" in lines[1]
        assert "90.0" in table and "80.0" in table
        # missing point rendered as '-'
        assert lines[-1].strip().endswith("-")

    def test_overhead_table_not_percent(self):
        result = FigureResult(
            "6b", "rate", "overhead", {"ACP": Series("ACP", ((20.0, 123.4),))}
        )
        table = format_figure_table(result, percent=False)
        assert "123.4" in table

    def test_fig8_table(self):
        from repro.simulation.metrics import WindowSample

        result = Fig8Result(
            "8b",
            (WindowSample(300.0, 0.9, 10, 0.3),),
            RateSchedule.constant(40.0),
            0.9,
        )
        table = format_fig8_table(result)
        assert "adaptive, target 90%" in table
        assert "0.3" in table

    def test_report_summary(self):
        report = run_spec(tiny_spec())
        columns = EXPERIMENTS["compare"].view.columns
        table = format_arms_table("", "algorithm", columns, [("ACP", report)])
        assert "ACP" in table
        assert "success (%)" in table


class TestExports:
    def test_report_to_dict_is_json_serialisable(self):
        import json

        from repro.experiments.reporting import report_to_dict

        report = run_spec(tiny_spec())
        payload = report_to_dict(report)
        parsed = json.loads(json.dumps(payload))
        assert parsed["algorithm"] == "ACP"
        assert parsed["total_requests"] == report.total_requests
        assert 0.0 <= parsed["success_rate"] <= 1.0
        assert isinstance(parsed["window_samples"], list)
