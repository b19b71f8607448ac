"""Tests for the observability layer (trace recorder, metrics registry,
JSONL export) and its wiring through the simulation stack.

The acceptance test at the bottom runs a full traced simulation and
asserts the trace *exactly* reconstructs the Fig. 8 series the report and
tuner hold — the trace is a faithful journal, not an approximation.
"""

import json
import random

import pytest

from repro.core.acp import ACPComposer
from repro.core.tuning import ProbingRatioTuner
from repro.observability import (
    NULL_RECORDER,
    REGISTRY_KIND,
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    format_trace_summary,
    read_trace,
    summarize_trace,
    write_jsonl,
)
from repro.simulation.failures import FailureInjector, FaultPlan
from repro.simulation.simulator import StreamProcessingSimulator
from repro.simulation.workload import QOS_LEVELS, RateSchedule, WorkloadGenerator
from tests.conftest import build_small_system


class TestRegistry:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2.5)
        assert registry.counter("x").value == pytest.approx(3.5)

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(-4.0)
        assert registry.gauge("g").value == -4.0

    def test_histogram_streaming_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in [1.0, 3.0, 2.0]:
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(6.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(7.0)
        registry.histogram("h").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"] == {"g": 7.0}
        assert snapshot["histograms"]["h"]["count"] == 1
        # snapshots must be JSON-serialisable (the exporter embeds them)
        json.dumps(snapshot)


class TestNullRecorder:
    def test_disabled_and_inert(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.emit("anything", time=1.0, detail="x")
        recorder.inc("counter")
        recorder.set_gauge("gauge", 1.0)
        recorder.observe("histogram", 2.0)
        recorder.bind_clock(lambda: 99.0)
        with recorder.phase("compose"):
            pass

    def test_shared_singleton(self):
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert NULL_RECORDER.enabled is False


class TestTraceRecorder:
    def test_emit_collects_events(self):
        recorder = TraceRecorder()
        assert recorder.enabled is True
        recorder.emit("a", time=1.0, value=10)
        recorder.emit("b", time=2.0)
        assert [event.kind for event in recorder.events] == ["a", "b"]
        assert recorder.events[0].fields == {"value": 10}
        assert [e.kind for e in recorder.events_of("a")] == ["a"]

    def test_clock_binding_stamps_events(self):
        recorder = TraceRecorder()
        recorder.emit("before")
        assert recorder.events[0].time == 0.0
        now = {"t": 123.5}
        recorder.bind_clock(lambda: now["t"])
        recorder.emit("after")
        assert recorder.events[1].time == 123.5
        # an explicit time always wins over the clock
        recorder.emit("explicit", time=7.0)
        assert recorder.events[2].time == 7.0

    def test_metrics_delegate_to_registry(self):
        recorder = TraceRecorder()
        recorder.inc("hits", 2)
        recorder.set_gauge("level", 0.5)
        recorder.observe("latency", 1.5)
        snapshot = recorder.registry.snapshot()
        assert snapshot["counters"]["hits"] == 2
        assert snapshot["gauges"]["level"] == 0.5
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_phase_timer_records_histogram(self):
        recorder = TraceRecorder()
        with recorder.phase("work"):
            sum(range(100))
        histogram = recorder.registry.histogram("phase.work")
        assert histogram.count == 1
        assert histogram.total >= 0.0


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit("a", time=1.0, value=10)
        recorder.emit("b", time=2.0, label="x")
        recorder.inc("counter", 3)
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(path, recorder)
        records = read_trace(path)
        assert count == len(records) == 3  # 2 events + registry
        assert records[0] == {"t": 1.0, "kind": "a", "value": 10}
        assert records[1] == {"t": 2.0, "kind": "b", "label": "x"}
        assert records[-1]["kind"] == REGISTRY_KIND
        assert records[-1]["counters"]["counter"] == 3

    def test_summarize_and_format(self, tmp_path):
        recorder = TraceRecorder()
        recorder.emit("probe.start", time=0.0, request_id=1)
        recorder.emit("probe.commit", time=0.1, request_id=1, phi=2.0)
        recorder.emit(
            "window.close", time=300.0, success_rate=0.5, requests=2,
            probing_ratio=0.3, carried=False,
        )
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, recorder)
        summary = summarize_trace(read_trace(path))
        assert summary["events"] == 3
        assert summary["kinds"]["probe.start"] == 1
        assert summary["composes"] == 1
        assert summary["commits"] == 1
        assert len(summary["windows"]) == 1
        text = format_trace_summary(summary)
        assert "trace: 3 events" in text
        assert "sampling windows" in text


class TestIdleWindowRegression:
    def test_idle_window_does_not_feed_tuner(self):
        """An idle sampling window carries the previous rate forward for
        the Fig. 8 series; feeding that carried value to the tuner would
        register phantom profile points (and spurious re-profiles)."""
        system = build_small_system(seed=3, num_nodes=12)
        workload = WorkloadGenerator(
            system.templates,
            RateSchedule.constant(10.0),
            qos_level=QOS_LEVELS["normal"],
            num_client_routers=system.config.num_routers,
            seed=7,
        )
        composer = ACPComposer(
            system.composition_context(rng=random.Random(3)),
            probing_ratio=0.3,
        )
        tuner = ProbingRatioTuner(target_success_rate=0.9)
        simulator = StreamProcessingSimulator(
            system, composer, workload, sampling_period_s=300.0, tuner=tuner
        )
        # close a window with zero requests recorded
        simulator._on_sampling_tick()
        assert simulator.metrics.window_samples[-1].requests == 0
        assert tuner.samples == ()
        assert tuner.profile == {}
        # a busy window still reaches the tuner
        from repro.simulation.metrics import RequestRecord

        simulator.metrics.record(
            RequestRecord(
                request_id=0, arrival_time=0.0, success=True,
                probe_messages=1, setup_messages=1, explored=1,
            )
        )
        simulator._on_sampling_tick()
        assert len(tuner.samples) == 1
        assert tuner.samples[0].success_rate == 1.0


def run_traced_simulation():
    recorder = TraceRecorder()
    system = build_small_system(seed=4, num_nodes=12)
    workload = WorkloadGenerator(
        system.templates,
        RateSchedule.constant(20.0),
        qos_level=QOS_LEVELS["normal"],
        num_client_routers=system.config.num_routers,
        seed=54,
    )
    composer = ACPComposer(
        system.composition_context(rng=random.Random(4)), probing_ratio=0.5
    )
    tuner = ProbingRatioTuner(target_success_rate=0.9)
    failures = FailureInjector(
        system.network, system.router,
        plan=FaultPlan(node_fail_probability=0.02, period_s=120.0),
        rng=random.Random(9),
    )
    simulator = StreamProcessingSimulator(
        system, composer, workload, sampling_period_s=300.0,
        tuner=tuner, failures=failures, recorder=recorder,
    )
    report = simulator.run(900.0)
    return recorder, report, tuner


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced_simulation()

    def test_trace_reconstructs_window_series(self, traced):
        """Acceptance: the window.close events reproduce the report's
        Fig. 8 success-rate series exactly — same times, same rates, same
        request counts, same probing ratios."""
        recorder, report, _ = traced
        from_trace = [
            (e.time, e.fields["success_rate"], e.fields["requests"],
             e.fields["probing_ratio"])
            for e in recorder.events_of("window.close")
        ]
        from_report = [
            (w.time, w.success_rate, w.requests, w.probing_ratio)
            for w in report.window_samples
        ]
        assert from_trace == from_report
        assert len(from_trace) > 0

    def test_trace_reconstructs_tuner_series(self, traced):
        """Acceptance: tuner.decision events reproduce the tuner's α(t)
        sample series exactly."""
        recorder, _, tuner = traced
        from_trace = [
            (e.time, e.fields["ratio"], e.fields["measured"],
             e.fields["reprofiled"])
            for e in recorder.events_of("tuner.decision")
        ]
        from_tuner = [
            (s.time, s.ratio, s.success_rate, s.reprofiled)
            for s in tuner.samples
        ]
        assert from_trace == from_tuner
        assert len(from_trace) > 0

    def test_probe_lifecycle_events_consistent(self, traced):
        recorder, report, _ = traced
        starts = recorder.events_of("probe.start")
        commits = recorder.events_of("probe.commit")
        fails = recorder.events_of("probe.fail")
        assert len(starts) == report.total_requests
        assert len(commits) == report.successes
        assert len(commits) + len(fails) == len(starts)
        # per-level events carry the wavefront shape
        for event in recorder.events_of("probe.level"):
            assert event.fields["selected"] <= event.fields["budget"]

    def test_session_and_infrastructure_events_present(self, traced):
        recorder, report, _ = traced
        kinds = {event.kind for event in recorder.events}
        assert "sim.start" in kinds and "sim.end" in kinds
        assert len(recorder.events_of("session.open")) == report.successes
        counters = recorder.registry.snapshot()["counters"]
        assert counters.get("fastscore.table_hit", 0) > 0
        assert counters.get("probe.messages", 0) > 0

    def test_events_time_ordered(self, traced):
        recorder, _, _ = traced
        times = [event.time for event in recorder.events]
        assert times == sorted(times)

    def test_simulation_unaffected_by_tracing(self):
        """A traced run and a null-recorder run of the same spec produce
        identical reports — observation does not perturb the system."""
        _, traced_report, _ = run_traced_simulation()
        system = build_small_system(seed=4, num_nodes=12)
        workload = WorkloadGenerator(
            system.templates,
            RateSchedule.constant(20.0),
            qos_level=QOS_LEVELS["normal"],
            num_client_routers=system.config.num_routers,
            seed=54,
        )
        composer = ACPComposer(
            system.composition_context(rng=random.Random(4)),
            probing_ratio=0.5,
        )
        tuner = ProbingRatioTuner(target_success_rate=0.9)
        failures = FailureInjector(
            system.network, system.router,
            plan=FaultPlan(node_fail_probability=0.02, period_s=120.0),
            rng=random.Random(9),
        )
        simulator = StreamProcessingSimulator(
            system, composer, workload, sampling_period_s=300.0,
            tuner=tuner, failures=failures,
        )
        null_report = simulator.run(900.0)
        assert null_report.total_requests == traced_report.total_requests
        assert null_report.successes == traced_report.successes
        assert null_report.window_samples == traced_report.window_samples
        assert null_report.probe_messages == traced_report.probe_messages
