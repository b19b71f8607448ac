"""Percentile rule, conservation gate, decision digest, run sizing."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT, tiny
from harness import FindProbe, conservation_violations, measure, percentile
from repro.experiments.runner import build_simulator
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.simulation.system import build_system
from workloads import WORKLOADS


class TestPercentile:
    def test_p95_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(200)), 0.95) == 189
        assert percentile(list(range(199)), 0.95) is None

    def test_median_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(20)), 0.50) == 9
        assert percentile(list(range(19)), 0.50) is None

    def test_never_reports_the_maximum(self):
        samples = [1.0] * 30 + [1000.0]
        assert percentile(samples, 0.99) is None
        assert percentile(samples, 0.50) == 1.0

    def test_order_of_samples_does_not_matter(self):
        assert percentile([5.0, 1.0, 3.0] * 10, 0.5) == 3.0

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 50, 1.0)


class TestConservation:
    def _drained(self, workload):
        spec = workload.spec(3)
        simulator = build_simulator(spec, build_system(spec.system))
        simulator.run(spec.duration_s)
        simulator.scheduler.run()
        return simulator

    def test_drained_run_conserves(self, tiny_workload):
        simulator = self._drained(tiny_workload)
        assert conservation_violations(simulator.system, simulator.sessions) == []

    def test_drained_fault_run_conserves(self, tiny_faults_workload):
        simulator = self._drained(tiny_faults_workload)
        assert simulator.sessions.sessions_disrupted > 0
        assert conservation_violations(simulator.system, simulator.sessions) == []

    def test_leaked_node_allocation_fails(self, tiny_workload):
        simulator = self._drained(tiny_workload)
        node = simulator.system.network.nodes[5]
        node.allocate(node.capacity.scaled(0.25))
        problems = conservation_violations(simulator.system, simulator.sessions)
        assert len(problems) == 1 and "node v5" in problems[0]

    def test_leaked_link_allocation_fails(self, tiny_workload):
        simulator = self._drained(tiny_workload)
        simulator.system.network.links[2].allocate_bandwidth(10.0)
        problems = conservation_violations(simulator.system, simulator.sessions)
        assert len(problems) == 1 and "link e2" in problems[0]

    def test_leaked_transient_reservation_fails(self, tiny_workload):
        simulator = self._drained(tiny_workload)
        system = simulator.system
        component = system.network.nodes[0].components[0]
        amount = ResourceVector(DEFAULT_RESOURCE_SCHEMA, [0.1, 0.1])
        assert system.allocator.reserve_component(99_999, component, amount)
        problems = conservation_violations(system, simulator.sessions)
        assert any("transient" in line for line in problems)

    def test_float_residue_is_tolerated(self, tiny_workload):
        simulator = self._drained(tiny_workload)
        link = simulator.system.network.links[0]
        link.allocate_bandwidth(1e-11)
        assert conservation_violations(simulator.system, simulator.sessions) == []


class TestDigest:
    def test_same_seed_same_digest(self, tiny_workload):
        first = measure(tiny_workload, 4, seconds=1)
        second = measure(tiny_workload, 4, seconds=1)
        assert first["digest"] == second["digest"]
        assert first["metrics"]["success_rate"] == second["metrics"]["success_rate"]

    def test_different_seed_different_digest(self, tiny_workload):
        assert measure(tiny_workload, 4, seconds=1)["digest"] != measure(
            tiny_workload, 5, seconds=1
        )["digest"]

    def test_digest_covers_every_arriving_request(self, tiny_workload):
        probe = FindProbe()
        with probe.installed():
            spec = tiny_workload.spec(4)
            report = build_simulator(spec, build_system(spec.system)).run(spec.duration_s)
        assert len(probe.samples) == report.total_requests > 0

    def test_same_seed_same_digest_across_processes_and_hash_seeds(self):
        script = (
            "import sys; sys.path[:0] = [{bench!r}, {src!r}, {tests!r}]\n"
            "from conftest import tiny\n"
            "from harness import measure\n"
            "print(measure(tiny(), 6, seconds=1)['digest'])\n"
        ).format(
            bench=BENCH_DIR,
            src=os.path.join(ROOT, "src"),
            tests=os.path.join(BENCH_DIR, "tests"),
        )
        digests = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            child = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=env, timeout=120, check=True,
            )
            digests.add(child.stdout.strip().splitlines()[-1])
        digests.add(measure(tiny(), 6, seconds=1)["digest"])
        assert len(digests) == 1


class TestRunSizing:
    def test_episode_count_depends_on_seconds_only(self):
        workload = tiny(reference_episode_s=4.0)
        assert [workload.episodes(s) for s in (1, 4, 5, 6, 8, 20)] == [1, 1, 1, 2, 2, 5]

    def test_episodes_use_distinct_seeds_and_each_times_its_set_up(self):
        workload = tiny(horizon_s=300.0, reference_episode_s=1.0)
        result = measure(workload, 2, seconds=2)
        assert result["episodes"] == [workload.episode_seed(2, 0), workload.episode_seed(2, 1)]
        assert result["episodes"][0] == 2
        assert "n=2 set-ups" in result["counts"]["setup_s"]

    def test_attempted_and_failed_count_finds(self, tiny_workload):
        result = measure(tiny_workload, 4, seconds=1)
        (report,) = result["reports"]
        assert result["attempted"] == report.total_requests
        assert result["failed"] == report.total_requests - report.successes


class TestBenchmarkFile:
    """BENCHMARK.json must declare exactly what the code prints."""

    @pytest.fixture
    def declared(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)

    def test_declared_workloads_are_defined(self, declared):
        assert [w["name"] for w in declared["workloads"]] == [
            name for name in WORKLOADS if name != "steady-400"
        ]
        for entry in declared["workloads"]:
            assert entry["why"] == WORKLOADS[entry["name"]].why

    def test_end_to_end_metrics_match(self, declared, tiny_workload):
        result = measure(tiny_workload, 4, seconds=1)
        assert [m["name"] for m in declared["end_to_end"]] == list(result["metrics"])
        units = {name: unit for name, (_, unit) in result["metrics"].items()}
        assert all(m["unit"] == units[m["name"]] for m in declared["end_to_end"])

    def test_per_layer_metrics_match(self, declared):
        from tracing import per_layer_metrics

        assert [
            (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
        ] == per_layer_metrics()
