"""Experiment runner: RunSpec → SimulationReport, serial or parallel.

Builds the system and workload a spec describes, instantiates the named
composer, runs the simulation, and hands back the report.  Every run is
deterministic in (spec.system.seed, spec.workload_seed); two specs that
differ only in the algorithm see identical systems and identical request
sequences, which is what makes the paper's algorithm comparisons fair.

Experiment harnesses fan whole spec batches out over worker processes via
:func:`run_specs` / :func:`parallel_map`.  Parallelism cannot change any
result: each point is an isolated simulation whose entire state derives
from the spec's seeds, workers are started with the ``spawn`` method so
they share no interpreter state with the parent (or each other), and
results are returned in submission order.  ``workers=None`` (or ``<= 1``)
degrades to the plain serial loop in-process.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.acp import ACPComposer
from repro.core.baselines import (
    RandomComposer,
    RandomProbingComposer,
    SelectiveProbingComposer,
    StaticComposer,
)
from repro.core.composer import Composer, CompositionContext
from repro.core.optimal import OptimalComposer
from repro.core.tuning import ProbingRatioTuner
from repro.experiments.config import RunSpec
from repro.middleware.migration import LiveSessionMigrationManager
from repro.observability import Recorder
from repro.simulation.failures import FailureInjector, install_control_plane_faults
from repro.simulation.metrics import SimulationReport
from repro.simulation.simulator import StreamProcessingSimulator
from repro.simulation.population import PopulationWorkload
from repro.simulation.system import StreamSystem, build_system
from repro.simulation.workload import WorkloadGenerator, WorkloadSource


def make_composer(spec: RunSpec, context: CompositionContext) -> Composer:
    """Instantiate the composer a spec names."""
    if spec.algorithm == "ACP":
        return ACPComposer(context, probing_ratio=spec.probing_ratio)
    if spec.algorithm == "Optimal":
        return OptimalComposer(context, max_explored=spec.optimal_max_explored)
    if spec.algorithm == "SP":
        return SelectiveProbingComposer(context, probing_ratio=spec.probing_ratio)
    if spec.algorithm == "RP":
        return RandomProbingComposer(context, probing_ratio=spec.probing_ratio)
    if spec.algorithm == "Random":
        return RandomComposer(context)
    if spec.algorithm == "Static":
        return StaticComposer(context)
    raise ValueError(f"unknown algorithm {spec.algorithm!r}")


def build_simulator(
    spec: RunSpec,
    system: Optional[StreamSystem] = None,
    recorder: Optional[Recorder] = None,
) -> StreamProcessingSimulator:
    """Assemble the simulator for a spec (reusing ``system`` if provided —
    only safe for probing a *fresh* system, since runs mutate state).

    ``recorder`` overrides the spec's ``system.recorder`` — the simulator
    wires it through the context, router, tuner, and session layers, so a
    caller-supplied :class:`~repro.observability.TraceRecorder` sees the
    whole run (the ``repro-experiments trace`` subcommand uses this).
    """
    system = system or build_system(spec.system)
    recorder = recorder if recorder is not None else system.recorder
    workload: WorkloadSource = WorkloadGenerator(
        system.templates,
        spec.schedule,
        qos_level=spec.qos_level,
        num_client_routers=spec.system.num_routers,
        seed=spec.workload_seed,
    )
    if spec.population is not None:
        # the population's arrival process draws from its own seed slot
        # (+43) so attaching it never perturbs the request-attribute
        # stream, and vice versa
        workload = PopulationWorkload(
            workload, spec.population, seed=spec.workload_seed + 43
        )
    context = system.composition_context(
        rng=random.Random(spec.workload_seed + 17), recorder=recorder
    )
    composer = make_composer(spec, context)
    tuner = None
    if spec.adaptive:
        tuner = ProbingRatioTuner(
            target_success_rate=spec.target_success_rate, recorder=recorder
        )
    # fault wiring: every fault stream derives its own seed from the
    # workload seed, so enabling one fault kind never perturbs another —
    # and a zero plan wires nothing, leaving the run decision-identical
    # to a fault-free spec
    failures = None
    if spec.faults is not None:
        if spec.faults.injects_churn:
            failures = FailureInjector(
                system.network,
                system.router,
                rng=random.Random(spec.workload_seed + 31),
                plan=spec.faults,
            )
        install_control_plane_faults(
            spec.faults,
            context,
            system.global_state,
            seed=spec.workload_seed + 41,
        )
    # live migration: the planner's candidate sampling draws from its own
    # seed slot (+46), and a zero plan builds no manager at all, leaving
    # the run byte-identical to a migration-free spec
    live_migration = None
    if spec.migration is not None and not spec.migration.is_zero:
        live_migration = LiveSessionMigrationManager(
            context,
            spec.migration,
            rng=random.Random(spec.workload_seed + 46),
        )
    return StreamProcessingSimulator(
        system,
        composer,
        workload,
        sampling_period_s=spec.sampling_period_s,
        tuner=tuner,
        failures=failures,
        recorder=recorder,
        recovery=spec.recovery,
        live_migration=live_migration,
    )


def run_spec(spec: RunSpec) -> SimulationReport:
    """Run one spec end to end and return its report."""
    simulator = build_simulator(spec)
    return simulator.run(spec.duration_s)


class ParallelExperimentError(RuntimeError):
    """A worker process died before delivering its result.

    Raised instead of the executor's :class:`BrokenProcessPool` so callers
    get one stable exception type (and a hint that the remaining points
    were abandoned, not silently skipped)."""


def parallel_map(
    fn: Callable, items: Iterable, workers: Optional[int] = None
) -> List:
    """Apply ``fn`` to every item, preserving input order in the output.

    With ``workers`` of ``None``, ``0`` or ``1`` this is a plain serial
    loop in the current process — no pool, nothing to pickle.  Otherwise
    items are dispatched to a ``spawn``-context process pool: spawned
    workers import the package fresh and inherit no parent state, so a
    point's result depends only on its argument — serial and parallel
    runs produce identical outputs.

    ``fn`` and the items must be picklable (module-level functions and
    frozen spec dataclasses are).  If a worker dies — OOM kill, hard
    crash, ``os._exit`` — the pool is torn down and
    :class:`ParallelExperimentError` is raised rather than hanging on a
    result that will never arrive.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = get_context("spawn")
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(items)), mp_context=context
        ) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise ParallelExperimentError(
            f"a worker process died while running {len(items)} experiment "
            f"points across {workers} workers; partial results discarded"
        ) from exc


def run_specs(
    specs: Sequence[RunSpec], workers: Optional[int] = None
) -> List[SimulationReport]:
    """Run a batch of specs (one simulation each), optionally in parallel.

    Reports come back in spec order.  Each spec is self-seeding, so the
    fan-out is embarrassingly parallel and bit-deterministic either way.
    """
    return parallel_map(run_spec, specs, workers=workers)

