"""Shared benchmark fixtures and the result sink.

The figure and macro benchmarks each run one entry of
``repro.experiments.EXPERIMENTS`` at its committed parameters (the same
code and files as ``repro-experiments NAME -o benchmarks/results``) and
assert the paper's shapes on its reports; the ablation benchmarks build
their own arms.  All of them print their tables (run pytest with ``-s``
to see them live) and write their result files to
``benchmarks/results/`` through the ``publish`` fixture.  ``make
spec-check`` reruns all of them and diffs the files against the
committed ones.

The ``benchmark`` fixture times a single representative unit of work
(usually one full simulation point) with ``pedantic(rounds=1)`` — the
figures themselves are far too heavy to repeat for statistics, and their
interesting output is the series, not the nanoseconds.

The micro-benchmarks (``test_micro_operations.py``) are the exception:
they are statistical timings of the per-request building blocks, and their
medians are the numbers EXPERIMENTS.md's performance section quotes.  At
session end they are written to ``benchmarks/results/BENCH_micro.json``
as a plain ``{operation name: median seconds}`` map, so performance work
can diff before/after runs mechanically (``make bench-micro``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The statistical micro-benchmark module whose medians land in
#: BENCH_micro.json (figure benchmarks time whole simulations and are
#: deliberately excluded — one round tells nothing statistical).
MICRO_MODULE = "test_micro_operations"


def pytest_sessionfinish(session, exitstatus):
    """Persist micro-benchmark medians to benchmarks/results/BENCH_micro.json."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    medians = {
        bench.name: bench.stats.median
        for bench in benchmark_session.benchmarks
        if MICRO_MODULE in bench.fullname and not bench.has_error
    }
    if medians:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / "BENCH_micro.json"
        path.write_text(json.dumps(medians, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def publish(results_dir):
    """Print rendered tables and persist them under benchmarks/results/:
    ``publish(outcome)`` writes an experiment's result files,
    ``publish(name, text)`` one table as NAME.txt."""

    def _publish(outcome_or_name, text: Optional[str] = None) -> None:
        if text is None:
            text = outcome_or_name.text
            outcome_or_name.write(results_dir)
        else:
            (results_dir / f"{outcome_or_name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _publish
