"""Figure 8: adaptability — fixed vs self-tuning probing ratio.

The dynamic workload steps 40 → 80 → 60 req/min at thirds of the horizon.
Shapes to verify:

* 8(a) fixed α = 0.3: the success rate sags during the overload phase and
  only partially recovers — the ratio never moves;
* 8(b) adaptive: the tuner raises α when the load step depresses the
  success rate below target and lowers it again after the load recedes,
  and the mean deviation from the target is smaller than with the fixed
  ratio.
"""

import pytest

from repro.experiments import EXPERIMENTS


@pytest.fixture(scope="module")
def fig8(publish):
    outcome = EXPERIMENTS["fig8"].run()
    publish(outcome)
    return outcome.figures


def _phase_means(result):
    """Mean success rate per workload phase (low, peak, recovery)."""
    duration = result.samples[-1].time
    phases = ([], [], [])
    for sample in result.samples:
        index = min(2, int(3 * (sample.time - 1e-9) / duration))
        phases[index].append(sample.success_rate)
    return tuple(sum(p) / len(p) for p in phases)


def test_fig8_single_run_benchmark(benchmark, fig8):
    # the module fixture (both Fig. 8 runs) is computed during setup; the
    # timed body only validates it, keeping the suite's total run count low
    result = benchmark.pedantic(lambda: fig8[0], rounds=1, iterations=1)
    assert len(result.samples) >= 6


class TestFig8aFixedRatio:
    def test_ratio_never_moves(self, fig8, benchmark):
        fixed, _adaptive = fig8
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        ratios = {s.probing_ratio for s in fixed.samples}
        assert ratios == {0.3}

    def test_load_step_depresses_success(self, fig8, benchmark):
        fixed, _adaptive = fig8
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        low, peak, _recovery = _phase_means(fixed)
        assert peak < low - 0.03


class TestFig8bAdaptive:
    def test_ratio_rises_on_overload_and_falls_after(self, fig8, benchmark):
        _fixed, adaptive = fig8
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        duration = adaptive.samples[-1].time
        ratios_by_phase = ([], [], [])
        for sample in adaptive.samples:
            index = min(2, int(3 * (sample.time - 1e-9) / duration))
            ratios_by_phase[index].append(sample.probing_ratio)
        low_phase, peak_phase, recovery_phase = ratios_by_phase
        assert max(peak_phase) > max(low_phase)  # climbed under overload
        assert min(recovery_phase) < max(peak_phase) or (
            recovery_phase[-1] < peak_phase[-1] + 1e-9
        )  # started descending once the target was met again

    def test_adaptive_tracks_target_better_than_fixed(self, fig8, benchmark):
        fixed, adaptive = fig8
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        target = adaptive.target_success_rate

        def mean_shortfall(result):
            shortfalls = [
                max(0.0, target - s.success_rate) for s in result.samples
            ]
            return sum(shortfalls) / len(shortfalls)

        assert mean_shortfall(adaptive) <= mean_shortfall(fixed) + 0.02

    def test_recovery_phase_meets_target(self, fig8, benchmark):
        _fixed, adaptive = fig8
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        *_rest, recovery = _phase_means(adaptive)
        assert recovery >= adaptive.target_success_rate - 0.05
