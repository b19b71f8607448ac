"""Tier-1 fingerprint of the behavioural spec.

``make spec-check`` replays every committed figure and benchmark result,
which takes about 20 minutes.  This test pins the same decision paths
on reduced cells in seconds: the arms of the ``compare``, ``fig8``,
``faults``, ``population`` and ``migrate`` experiments at the CLI tests'
tiny scale (80 nodes, seed 1), plus the two paths only the hand-wired
ablations reach (the PID tuner and a non-default ranking policy) and
two cells that score locality-pruned candidate pools
(``candidate_prune_k`` below N): bounded neighbourhood solves, widen
retries and the neighbourhood index under churn.  A cell's SHA-256
covers every request's record in arrival order and the ``repr`` of its
report, so any moved decision or any changed float bit fails it.

A change that moves decisions on purpose regenerates the fixture with
``PYTHONPATH=src python -m tests.test_spec_fingerprint`` and states the
cause.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.core import PIDRatioTuner, RankingPolicy
from repro.experiments import ALGORITHMS, EXPERIMENTS, RunSpec
from repro.experiments.runner import build_simulator
from repro.simulation import StreamProcessingSimulator
from tests.test_cli import TINY_SCALE

FIXTURE = Path(__file__).parent / "fixtures" / "spec_digests.json"

#: the CLI tests' one-point settings, with all six algorithms compared
PARAMS = {
    "compare": dict(rate=20.0, algorithms=ALGORITHMS),
    "fig8": {},
    "faults": {},
    "population": dict(scenarios=("steady",), multipliers=(0.5,)),
    # the migration plan first moves a session after about 300 simulated
    # seconds at this size; on the tiny horizon both arms would coincide
    "migrate": dict(scale=replace(TINY_SCALE, duration_s=480.0)),
}


def _pid_tuned(spec: RunSpec) -> StreamProcessingSimulator:
    """The tuner ablation's wiring: ``spec`` run under the PID tuner."""
    parts = build_simulator(spec)
    return StreamProcessingSimulator(
        parts.system,
        parts.composer,
        parts.workload,
        sampling_period_s=spec.sampling_period_s,
        tuner=PIDRatioTuner(target_success_rate=spec.target_success_rate),
    )


def _risk_only(spec: RunSpec) -> StreamProcessingSimulator:
    """The selection ablation's wiring: ``spec`` ranked by risk alone."""
    simulator = build_simulator(spec)
    simulator.composer.ranking_policy = RankingPolicy.RISK_ONLY
    return simulator


#: neighbourhood size of the pruned cells: well below the 80 nodes, so
#: levels score bounded neighbourhoods and some widen
PRUNE_K = 24


def _pruned(spec: RunSpec) -> RunSpec:
    return replace(spec, system=replace(spec.system, candidate_prune_k=PRUNE_K))


def _cells() -> Dict[str, Tuple[RunSpec, Callable[[RunSpec], StreamProcessingSimulator]]]:
    cells = {}
    for name, params in PARAMS.items():
        settings = {"scale": TINY_SCALE, "num_nodes": 80, "seed": 1, **params}
        for arm in EXPERIMENTS[name].arms(**settings):
            cells[f"{name}/{arm.label}"] = (arm.spec, build_simulator)
    fixed = cells["fig8/fixed"][0]
    cells["ablation/PID tuner"] = (fixed, _pid_tuned)
    cells["ablation/risk only"] = (fixed, _risk_only)
    cells["pruned/ACP"] = (_pruned(cells["compare/ACP"][0]), build_simulator)
    cells["pruned/faults recovery"] = (
        _pruned(cells["faults/recovery"][0]),
        build_simulator,
    )
    return cells


CELLS = _cells()


def cell_digest(name: str) -> str:
    spec, build = CELLS[name]
    simulator = build(spec)
    report = simulator.run(spec.duration_s)
    digest = hashlib.sha256()
    for record in simulator.metrics.records:
        digest.update(f"{record!r}\n".encode())
    digest.update(repr(report).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def committed() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_names_every_cell(committed):
    assert sorted(committed) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_replays_committed_digest(name, committed):
    assert cell_digest(name) == committed[name]


if __name__ == "__main__":
    digests = {name: cell_digest(name) for name in sorted(CELLS)}
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
