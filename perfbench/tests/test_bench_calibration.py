"""Host-speed gauge: slicing keeps every decision, scaling arithmetic."""

from __future__ import annotations

import pytest

from calibration import REFERENCE_PASS_S, REFERENCE_SETUP_PASS_S, SpeedGauge, speed_factor
from conftest import tiny
from harness import FindProbe, measure, run_episode
from repro.experiments.runner import build_simulator
from repro.simulation.system import build_system


class FixedGauge:
    """Reads the given run-phase pass times in turn (the last one
    repeats), and set-up passes at ``setup_speed`` of the reference."""

    def __init__(self, *passes: float, setup_speed: float = 1.0) -> None:
        self.passes = passes
        self.readings = []
        self.setup_pass = REFERENCE_SETUP_PASS_S / setup_speed

    def read(self) -> float:
        reading = self.passes[min(len(self.readings), len(self.passes) - 1)]
        self.readings.append(reading)
        return reading

    def read_setup(self) -> float:
        return self.setup_pass


class TestSpeedFactor:
    def test_reference_speed_scales_by_one(self):
        assert speed_factor(REFERENCE_PASS_S, REFERENCE_PASS_S) == 1.0

    def test_a_host_at_half_speed_halves_timings(self):
        assert speed_factor(2 * REFERENCE_PASS_S, 2 * REFERENCE_PASS_S) == pytest.approx(0.5)

    def test_a_slice_takes_the_mean_of_the_readings_around_it(self):
        assert speed_factor(REFERENCE_PASS_S, 3 * REFERENCE_PASS_S) == pytest.approx(0.5)

    def test_readings_are_pass_times(self):
        gauge = SpeedGauge()
        assert 0.0 < gauge.read() < gauge.read_setup() < 1.0


class TestSlicedRun:
    def test_slicing_keeps_every_decision(self, tiny_faults_workload):
        seed = 4
        probe = FindProbe()
        with probe.installed():
            spec = tiny_faults_workload.spec(seed)
            simulator = build_simulator(spec, build_system(spec.system))
            report = simulator.run(spec.duration_s)
            simulator.scheduler.run()
        probe.fold(f"episode {seed}\n{report!r}\n")
        workload = tiny(
            name="sliced", rate_steps=tiny_faults_workload.rate_steps,
            faults=tiny_faults_workload.faults, recovery=tiny_faults_workload.recovery,
            reference_episode_s=6.0,
        )
        assert workload.run_slices == 15
        assert measure(workload, seed, seconds=6.0)["digest"] == probe.digest.hexdigest()

    def test_a_host_at_half_speed_halves_every_timing(self):
        probe = FindProbe()
        with probe.installed():
            episode = run_episode(
                tiny(), 4, probe, FixedGauge(2 * REFERENCE_PASS_S, setup_speed=0.5)
            )
        assert episode.scaled_setup_s == pytest.approx(0.5 * episode.setup_s)
        assert episode.scaled_run_s == pytest.approx(0.5 * episode.run_s)
        assert list(episode.finds) == pytest.approx([0.5 * s for s in probe.samples])

    def test_set_up_and_each_slice_take_their_own_readings(self):
        # set-up at a quarter of the reference speed; the run phase at
        # half speed before the first slice, at reference speed after it
        reference = REFERENCE_PASS_S
        probe = FindProbe()
        with probe.installed():
            episode = run_episode(
                tiny(reference_episode_s=2.0), 4, probe,
                FixedGauge(2 * reference, reference, setup_speed=0.25),
            )
        assert episode.scaled_setup_s == pytest.approx(0.25 * episode.setup_s)
        assert 2.0 / 3.0 * episode.run_s < episode.scaled_run_s < episode.run_s
