"""Experiments regenerating every figure of the paper's evaluation.

:data:`EXPERIMENTS` (``repro.experiments.registry``) defines each
experiment once; the CLI, the benchmarks and the examples run its entries.
"""

from repro.experiments.config import (
    ALGORITHMS,
    EVALUATION_DEPLOYMENT,
    ExperimentScale,
    FAST_SCALE,
    PAPER_SCALE,
    RunSpec,
    default_spec,
)
from repro.experiments.figures import (
    Fig8Result,
    FigureResult,
    Series,
    population_scenarios,
)
from repro.experiments.registry import (
    DEFAULT_MIGRATION_PLAN,
    EXPERIMENTS,
    MIGRATION_FAULT_PLAN,
    Experiment,
    Outcome,
)
from repro.experiments.reporting import (
    format_fig8_table,
    format_figure_table,
    report_to_dict,
)
from repro.experiments.runner import (
    ParallelExperimentError,
    build_simulator,
    make_composer,
    parallel_map,
    run_spec,
    run_specs,
)

__all__ = [
    "ALGORITHMS",
    "EVALUATION_DEPLOYMENT",
    "ExperimentScale",
    "PAPER_SCALE",
    "FAST_SCALE",
    "RunSpec",
    "default_spec",
    "EXPERIMENTS",
    "Experiment",
    "Outcome",
    "FigureResult",
    "Fig8Result",
    "Series",
    "population_scenarios",
    "DEFAULT_MIGRATION_PLAN",
    "MIGRATION_FAULT_PLAN",
    "format_figure_table",
    "format_fig8_table",
    "report_to_dict",
    "run_spec",
    "run_specs",
    "parallel_map",
    "ParallelExperimentError",
    "build_simulator",
    "make_composer",
]
