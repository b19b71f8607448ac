"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

Puts the benchmark's modules and the program's source tree on the path,
and defines tiny workloads (80 nodes, minutes of simulated time) that
run the same code as the real ones in about a second.
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.middleware.session import RecoveryPolicy  # noqa: E402

from workloads import FAULT_COCKTAIL, Workload  # noqa: E402


def tiny(**overrides) -> Workload:
    fields = dict(
        name="tiny",
        why="self-test",
        num_nodes=80,
        num_routers=160,
        horizon_s=600.0,
        rate_steps=((0.0, 40.0),),
        reference_episode_s=1.0,
    )
    fields.update(overrides)
    return Workload(**fields)


@pytest.fixture
def tiny_workload() -> Workload:
    return tiny()


@pytest.fixture
def tiny_faults_workload() -> Workload:
    return tiny(
        name="tiny-faults",
        rate_steps=((0.0, 20.0), (1.0 / 3.0, 40.0), (2.0 / 3.0, 30.0)),
        faults=FAULT_COCKTAIL,
        recovery=RecoveryPolicy(),
    )
