"""Tests for the repro-experiments command-line interface."""

import json
from dataclasses import replace
from types import MappingProxyType

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS, ExperimentScale

# every CLI test shrinks the workload far below even FAST_SCALE by
# narrowing the swept values; the fast scale handles the rest
TINY = ["--scale", "fast", "--nodes", "80", "--seed", "1"]

#: what ``--scale fast`` means for the registry tests below
TINY_SCALE = ExperimentScale(
    name="tiny",
    num_routers=120,
    duration_s=240.0,
    adaptability_duration_s=540.0,
    sampling_period_s=60.0,
    optimal_max_explored=3000,
)

#: ``migrate`` runs to the spec fingerprint's horizon: at 240 s neither arm
#: migrates a session, so both would write the same report
MIGRATE_SCALE = replace(TINY_SCALE, duration_s=480.0)

#: one point per swept axis of each registry entry, on a light load
ONE_POINT = {
    "fig5a": ["--rates", "20", "--ratios", "0.5"],
    "fig5b": ["--levels", "high", "--rate", "20", "--ratios", "0.5"],
    "fig6": ["--rates", "20", "--algorithms", "ACP"],
    "fig7": ["--counts", "80", "--rate", "20", "--algorithms", "ACP"],
    "fig8": [],
    "faults": [],
    "population": ["--scenarios", "steady", "--multipliers", "0.5"],
    "migrate": [],
    "compare": ["--rate", "20", "--algorithms", "ACP,Static"],
}


@pytest.fixture
def tiny_scale(monkeypatch):
    monkeypatch.setattr(
        cli, "SCALES", MappingProxyType({"paper": TINY_SCALE, "fast": TINY_SCALE})
    )


def _tiny_argv(name, output):
    return [name, "--scale", "fast", "--nodes", "80", "-o", str(output), *ONE_POINT[name]]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_common_flags_after_subcommand(self):
        args = build_parser().parse_args(
            ["fig6", "--scale", "paper", "--seed", "7"]
        )
        assert args.scale == "paper"
        assert args.seed == 7

    def test_list_arguments_parse(self):
        args = build_parser().parse_args(
            ["fig5a", "--rates", "50,100", "--ratios", "0.1,0.5"]
        )
        assert args.rates == [50.0, 100.0]
        assert args.ratios == [0.1, 0.5]

    def test_fig7_counts(self):
        args = build_parser().parse_args(["fig7", "--counts", "200,400"])
        assert args.counts == [200, 400]


class TestCommands:
    def test_compare_prints_summary(self, capsys):
        exit_code = main(
            ["compare", *TINY, "--rate", "20", "--algorithms", "ACP,Static"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "ACP" in out and "Static" in out
        assert "success (%)" in out

    def test_fig5a_single_point(self, capsys):
        exit_code = main(
            ["fig5a", *TINY, "--rates", "20", "--ratios", "0.5"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 5a" in out
        assert "20 reqs/min" in out

    def test_trace_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        exit_code = main(
            [
                "trace", *TINY, "--rate", "20", "--adaptive",
                "--duration", "400", "--trace-out", str(trace_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "events" in out
        assert trace_path.exists()
        # the exported trace summarises standalone
        exit_code = main(["trace-summary", str(trace_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "event counts" in out
        assert "tuner decisions" in out

    def test_output_file(self, tmp_path, capsys):
        sink = tmp_path / "out"
        main(
            [
                "compare", "--scale", "fast", "--nodes", "80", "--seed", "1",
                "-o", str(sink), "--rate", "20", "--algorithms", "Static",
            ]
        )
        capsys.readouterr()
        assert "Static" in (sink / "compare.json").read_text()


class TestRegistry:
    def test_every_entry_is_covered(self):
        assert set(ONE_POINT) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_entry_runs_end_to_end(self, name, monkeypatch, tmp_path, capsys):
        entry = EXPERIMENTS[name]
        scale = MIGRATE_SCALE if name == "migrate" else TINY_SCALE
        monkeypatch.setattr(
            cli, "SCALES", MappingProxyType({"paper": scale, "fast": scale})
        )
        argv = _tiny_argv(name, tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().out.strip()
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            entry.view.files
        )
        args = build_parser().parse_args(argv)
        labels = [
            arm.label
            for arm in entry.arms(
                scale=scale,
                num_nodes=80,
                **{flag: getattr(args, flag) for flag in entry.params},
            )
        ]
        for file in entry.view.files:
            text = (tmp_path / file).read_text()
            if not file.endswith(".json"):
                assert text.startswith("Figure ")
                assert len(text.splitlines()) >= 3
                continue
            payload = json.loads(text)
            assert list(payload) == ["config", *labels]
            assert all(payload[label]["total_requests"] > 0 for label in labels)
            if name == "compare":
                # every algorithm saw the same system and request sequence
                assert len({payload[label]["total_requests"] for label in labels}) == 1
            if name == "migrate":
                # the proactive arm really moved sessions off hot nodes
                assert payload["proactive+recover"]["sessions_migrated"] > 0

    def test_only_cli_options_override(self):
        # every other setting is a constant of the entry's builder
        with pytest.raises(TypeError, match="no parameters"):
            EXPERIMENTS["faults"].arms(plan=None)

    def test_rerun_replaces_result_files(self, tiny_scale, tmp_path, capsys):
        main(_tiny_argv("fig6", tmp_path))
        once = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        main(_tiny_argv("fig6", tmp_path))
        capsys.readouterr()
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == once
