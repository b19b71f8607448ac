"""Unit tests for the probing ratio tuner (Section 3.4)."""

import pytest

from repro.core.tuning import ProbingRatioTuner


class TestConstruction:
    def test_defaults(self):
        tuner = ProbingRatioTuner()
        assert tuner.current_ratio() == pytest.approx(0.1)
        assert tuner.target_success_rate == 0.9

    def test_invalid_target(self):
        with pytest.raises(ValueError, match="target"):
            ProbingRatioTuner(target_success_rate=0.0)

    def test_invalid_ratio_ordering(self):
        with pytest.raises(ValueError, match="base_ratio"):
            ProbingRatioTuner(base_ratio=0.5, max_ratio=0.3)

    def test_invalid_step(self):
        with pytest.raises(ValueError, match="step"):
            ProbingRatioTuner(step=0.0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            ProbingRatioTuner(tolerance=-0.1)


class TestControlLoop:
    def test_ratio_rises_on_shortfall(self):
        tuner = ProbingRatioTuner(target_success_rate=0.9)
        ratio = tuner.record_sample(0.85)
        assert ratio > 0.1

    def test_large_shortfall_jumps_multiple_steps(self):
        """Fig. 8(b): a 35-point shortfall jumps the ratio by ~3 steps, not
        one."""
        tuner = ProbingRatioTuner(target_success_rate=0.9, base_ratio=0.2)
        ratio = tuner.record_sample(0.55)
        assert ratio >= 0.5 - 1e-9

    def test_float_shortfall_does_not_overshoot_grid(self):
        """A 30-point shortfall is exactly three 0.1-steps.  Float error
        makes ``0.9 - 0.6`` come out just above 0.3, and a naive ceil
        (``-(-shortfall // step)``) then overshoots to four steps."""
        tuner = ProbingRatioTuner(target_success_rate=0.9)
        ratio = tuner.record_sample(0.6)
        assert ratio == pytest.approx(0.4)

    def test_ratio_capped_at_max(self):
        tuner = ProbingRatioTuner(target_success_rate=0.9, max_ratio=0.6)
        tuner.record_sample(0.1)
        assert tuner.current_ratio() <= 0.6

    def test_ratio_descends_when_above_target(self):
        tuner = ProbingRatioTuner(target_success_rate=0.9, base_ratio=0.1)
        tuner.record_sample(0.3)  # jump up
        high = tuner.current_ratio()
        tuner.record_sample(0.99)
        assert tuner.current_ratio() == pytest.approx(high - 0.1)

    def test_never_descends_below_base(self):
        tuner = ProbingRatioTuner(target_success_rate=0.5, base_ratio=0.1)
        for _ in range(5):
            tuner.record_sample(0.99)
        assert tuner.current_ratio() == pytest.approx(0.1)

    def test_in_band_seeks_minimal_ratio(self):
        """Meeting the target is enough to probe a cheaper ratio when the
        profile has not yet shown that it misses (minimal-α principle)."""
        tuner = ProbingRatioTuner(target_success_rate=0.9, tolerance=0.02)
        tuner.record_sample(0.5)
        ratio = tuner.current_ratio()
        tuner.record_sample(0.905)
        assert tuner.current_ratio() == pytest.approx(ratio - 0.1)

    def test_in_band_holds_when_profile_blocks_descent(self):
        tuner = ProbingRatioTuner(target_success_rate=0.9, tolerance=0.02)
        tuner.record_sample(0.7)  # profile[0.1] = 0.7 -> jumps to 0.3
        tuner.record_sample(0.2)  # reprofiles; profile[0.3] = 0.2 -> jump
        ratio = tuner.current_ratio()
        assert ratio > 0.3
        # profile now knows lower ratios miss; a just-in-band sample where
        # the step below was measured to miss must hold
        tuner._profile[round(ratio - 0.1, 10)] = 0.5
        tuner.record_sample(0.91)
        assert tuner.current_ratio() == pytest.approx(ratio)

    def test_profile_blocks_descent_that_would_miss_target(self):
        tuner = ProbingRatioTuner(target_success_rate=0.9)
        # establish that 0.1 yields 0.5: profile knows it misses the target
        tuner.record_sample(0.50)  # at 0.1 -> jumps up to 0.5
        assert tuner.current_ratio() == pytest.approx(0.5)
        tuner.record_sample(0.95)  # descend one step to 0.4
        tuner.record_sample(0.95)  # 0.3
        tuner.record_sample(0.95)  # 0.2
        tuner.record_sample(0.95)  # would go to 0.1, but profile says 0.5 there
        assert tuner.current_ratio() == pytest.approx(0.2)


class TestProfiling:
    def test_profile_records_observations(self):
        tuner = ProbingRatioTuner()
        tuner.record_sample(0.7, time=10.0)
        assert tuner.predicted_success(0.1) == pytest.approx(0.7)

    def test_profile_smoothing(self):
        tuner = ProbingRatioTuner(target_success_rate=0.9, smoothing=0.5,
                                  tolerance=0.5)
        tuner.record_sample(0.8)
        ratio = tuner.current_ratio()
        tuner.record_sample(0.6)
        # with huge tolerance nothing reprofiles; EWMA of 0.8 and 0.6
        assert tuner.predicted_success(ratio) == pytest.approx(0.7)

    def test_reprofile_on_prediction_error(self):
        """When the measured rate diverges from the profile's prediction by
        more than δ, the stale profile is discarded (system conditions
        changed)."""
        tuner = ProbingRatioTuner(target_success_rate=0.9, tolerance=0.02)
        tuner.record_sample(0.92)  # profile[0.1] = 0.92, ratio stays
        assert tuner.reprofile_count == 0
        tuner.record_sample(0.60)  # prediction error 0.32 > δ
        assert tuner.reprofile_count == 1
        # profile was rebuilt from the fresh measurement
        assert tuner.predicted_success(0.1) == pytest.approx(0.60)

    def test_samples_recorded_for_fig8(self):
        tuner = ProbingRatioTuner()
        tuner.record_sample(0.8, time=300.0)
        tuner.record_sample(0.85, time=600.0)
        times = [s.time for s in tuner.samples]
        assert times == [300.0, 600.0]
        assert tuner.samples[0].ratio == pytest.approx(0.1)

    def test_invalid_sample_rejected(self):
        tuner = ProbingRatioTuner()
        with pytest.raises(ValueError, match="success rate"):
            tuner.record_sample(1.5)
