"""Span self-time arithmetic, leaf folding, and wrapper transparency."""

from __future__ import annotations

import gzip
import json

from harness import measure
from repro.core.prober import ProbingComposer
from repro.middleware.session import SessionManager
from tracing import (
    RECOVER,
    LayerHooks,
    Tracer,
    installed,
    layer_metrics,
    per_layer_metrics,
    span_names,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def traced_tree(clock: FakeClock) -> Tracer:
    """root [0, 10] holds mid [1, 7] and two leaves [7, 8], [8, 9.5];
    mid holds leaves [2, 3] and [4, 6]."""
    tracer = Tracer(clock=clock)
    root = tracer.open("root", "req1")
    clock.advance(1)
    mid = tracer.open("mid")
    clock.advance(1)
    leaf = tracer.open("leaf")
    clock.advance(1)
    tracer.close(leaf)
    clock.advance(1)
    leaf = tracer.open("leaf")
    clock.advance(2)
    tracer.close(leaf)
    clock.advance(1)
    tracer.close(mid)
    other = tracer.open("other")
    clock.advance(1)
    tracer.close(other)
    other = tracer.open("other")
    clock.advance(1.5)
    tracer.close(other)
    clock.advance(0.5)
    tracer.close(root)
    return tracer


class TestSelfTime:
    def test_self_time_subtracts_wrapped_children(self):
        tracer = traced_tree(FakeClock())
        assert tracer.self_s["root"] == 10 - 6 - 1 - 1.5
        assert tracer.self_s["mid"] == 6 - 1 - 2
        assert tracer.self_s["leaf"] == 3
        assert tracer.self_s["other"] == 2.5
        assert tracer.calls == {"root": 1, "mid": 1, "leaf": 2, "other": 2}

    def test_self_times_sum_to_the_root_duration(self):
        tracer = traced_tree(FakeClock())
        assert sum(tracer.self_s.values()) == 10

    def test_inclusive_time_is_the_span_duration(self):
        tracer = traced_tree(FakeClock())
        assert tracer.incl_s["root"] == 10 and tracer.incl_s["mid"] == 6

    def test_leaves_fold_into_their_parent(self):
        tracer = traced_tree(FakeClock())
        kept = {span[1]: span for span in tracer.spans}
        assert set(kept) == {"root", "mid"}
        assert kept["mid"][6] == {"leaf": [2, 3]}
        assert kept["root"][6] == {"other": [2, 2.5]}
        assert kept["mid"][4] == kept["root"][0]

    def test_children_inherit_the_trace_id(self):
        tracer = traced_tree(FakeClock())
        assert {span[5] for span in tracer.spans} == {"req1"}

    def test_spans_are_written_out(self, tmp_path):
        tracer = traced_tree(FakeClock())
        path = tmp_path / "spans.jsonl.gz"
        assert tracer.write(str(path)) == 2
        with gzip.open(path, "rt") as handle:
            lines = [json.loads(line) for line in handle]
        assert {line["name"] for line in lines} == {"root", "mid"}


class TestWrappers:
    def test_tracing_keeps_decisions_and_restores_originals(self, tiny_faults_workload):
        originals = (SessionManager.find, ProbingComposer.compose)
        untraced = measure(tiny_faults_workload, 7, seconds=1)
        tracer = Tracer()
        hooks = LayerHooks(tracer)
        with installed(tracer, hooks):
            traced = measure(tiny_faults_workload, 7, seconds=1, hooks=hooks)
        assert traced["digest"] == untraced["digest"]
        assert (SessionManager.find, ProbingComposer.compose) == originals
        assert not traced["violations"]

    def test_layer_metrics_cover_every_declared_name(self, tiny_faults_workload):
        tracer = Tracer()
        hooks = LayerHooks(tracer)
        with installed(tracer, hooks):
            result = measure(tiny_faults_workload, 7, seconds=1, hooks=hooks)
        values = layer_metrics(tracer, hooks, overhead_ms=0.0)
        assert list(values) == [name for name, _, _ in per_layer_metrics()]
        assert values["middleware.SessionManager.find.calls"] == result["attempted"]
        assert values["simulation.FailureInjector.run_round.calls"] > 0
        assert values["middleware.SessionManager.recover_pending.calls"] > 0
        assert values["topology.NeighborhoodIndex.entry.calls"] == 0
        assert 0.0 < values["core.compose_yield"] <= 1.0
        # find spans carry the request id; churn rounds their round number
        traces = {span[5] for span in tracer.spans}
        assert any(t.startswith("req") for t in traces)
        assert any(t.startswith("round") for t in traces)

    def test_every_span_target_exists(self):
        names = span_names()
        assert len(names) == len(set(names))
        assert "topology.NeighborhoodIndex.entry" in names


class TestTracedMode:
    """``run.py --trace 1`` fails unless its digest equals the untraced run's."""

    def _traced(self, monkeypatch, tmp_path, tiny_workload, reference):
        import run
        from workloads import WORKLOADS

        monkeypatch.setitem(WORKLOADS, tiny_workload.name, tiny_workload)
        monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
        monkeypatch.setattr(run, "run_untraced_child", lambda args: reference)
        args = run.parse_args(
            ["--workload", tiny_workload.name, "--seed", "4", "--seconds", "1", "--trace", "1"]
        )
        return run.traced(args)

    def test_matching_digest_passes(self, monkeypatch, tmp_path, tiny_workload, capsys):
        untraced = measure(tiny_workload, 4, seconds=1)
        reference = {
            "digest": untraced["digest"],
            "wall_ms_per_request": untraced["metrics"]["wall_ms_per_request"][0],
            "correct": True,
        }
        assert self._traced(monkeypatch, tmp_path, tiny_workload, reference) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["correct"] is True
        assert set(last["metrics"]) == {name for name, _, _ in per_layer_metrics()}

    def test_different_digest_fails(self, monkeypatch, tmp_path, tiny_workload, capsys):
        reference = {"digest": "0" * 64, "wall_ms_per_request": 1.0, "correct": True}
        assert self._traced(monkeypatch, tmp_path, tiny_workload, reference) == 1
        output = capsys.readouterr().out
        assert "DIFFERENT" in output
        assert json.loads(output.strip().splitlines()[-1])["correct"] is False


class TestRoleChecks:
    """The traced run says whether each workload still loads its layer."""

    ENTRY = "topology.NeighborhoodIndex.entry"

    def _holds(self, name, tracer, run_s=10.0):
        import run

        return [holds for _, holds in run.role_checks(name, tracer, run_s)]

    def _tracer(self, self_s, calls, recover_s=0.0):
        tracer = Tracer()
        tracer.self_s.update(self_s)
        tracer.calls.update(calls)
        tracer.incl_s[RECOVER] = recover_s
        return tracer

    def test_faults_role_needs_half_the_run_in_recovery(self):
        tracer = self._tracer({RECOVER: 1.0}, {RECOVER: 3}, recover_s=5.0)
        assert self._holds("faults-400", tracer) == [True, True]
        tracer.incl_s[RECOVER] = 4.9
        assert self._holds("faults-400", tracer) == [False, True]

    def test_scale_role_needs_the_index_on_top_of_run_phase_spans(self):
        tracer = self._tracer(
            {self.ENTRY: 6.0, "core.FastScorer.score_level": 2.0,
             "topology.build_overlay_network": 9.0},
            {self.ENTRY: 100},
        )
        assert self._holds("scale-2000", tracer) == [True, True, True]
        tracer.self_s["core.FastScorer.score_level"] = 7.0
        tracer.self_s["topology.OverlayRouter.virtual_link_rows"] = 0.2
        assert self._holds("scale-2000", tracer) == [False, False, True]

    def test_steady_role_fails_when_the_index_or_recovery_runs(self):
        rows = {"topology.OverlayRouter.bottleneck_bandwidth_row": 1.0,
                "topology.OverlayRouter.virtual_link_rows": 1.5}
        assert self._holds("steady-400", self._tracer(rows, {})) == [True, True, True]
        used = self._tracer(rows, {self.ENTRY: 1, RECOVER: 1})
        assert self._holds("steady-400", used, run_s=13.0) == [False, False, False]

    def test_other_workloads_have_no_roles(self):
        assert self._holds("tiny", self._tracer({}, {})) == []
