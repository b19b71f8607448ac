"""The experiment registry: each experiment of the evaluation, defined once.

:data:`EXPERIMENTS` maps a name to an :class:`Experiment` entry holding
the parameters of its committed result in ``benchmarks/results/``, a
builder that turns them into arms (labelled runs, see
:class:`~repro.experiments.figures.Arm`) and a view that renders the
arms' reports and names the files they are written to.
``repro-experiments`` generates one subcommand per entry, the benchmarks
run the entries and assert on their outcomes, and the examples take
their specs from them, so ``repro-experiments NAME`` with no flags
regenerates the committed files.

An entry's ``params`` are the keyword arguments of its builder, each
one the CLI may override with a ``--NAME`` option; everything else an
entry runs with is a constant of its builder.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.config import (
    ALGORITHMS,
    FAST_SCALE,
    ExperimentScale,
    RunSpec,
    default_spec,
)
from repro.experiments.figures import (
    Arm,
    Fig8Result,
    FigureResult,
    Series,
    population_scenarios,
    sweep,
)
from repro.experiments.reporting import (
    Column,
    arms_to_dict,
    format_arms_table,
    format_fig8_table,
    format_figure_table,
)
from repro.experiments.runner import run_specs
from repro.middleware.migration import LiveMigrationPolicy, MigrationPlan
from repro.middleware.session import RecoveryPolicy
from repro.simulation.failures import FaultPlan
from repro.simulation.metrics import SimulationReport
from repro.simulation.population import TrafficEvent
from repro.simulation.workload import RateSchedule

#: overhead is only plotted for these in Figs. 6(b)/7(b)
OVERHEAD_ALGORITHMS: Tuple[str, ...] = ("Optimal", "ACP", "RP")

#: The migration experiment's live-migration configuration.  The stock
#: :class:`LiveMigrationPolicy` is deliberately conservative (half the
#: QoS slack, strict 0.45 cool bar); under a diurnal peak it aborts
#: nearly every transfer, so the experiment plan loosens exactly the
#: knobs the cost model gates on: the full slack budget may be spent on
#: a pause, any node below 0.6 utilisation counts as a target, rounds
#: come every 30 s with a 16-session budget, and two sustained-hot
#: rounds (one simulated minute) trigger.  Costs stay fully accounted —
#: the aborted/paused/probe counters report whatever this plan spends.
DEFAULT_MIGRATION_PLAN = MigrationPlan(
    policy=LiveMigrationPolicy(
        low_watermark=0.6,
        sustain_rounds=2,
        max_session_migrations_per_round=16,
        candidate_sample=8,
        pause_slack_fraction=1.0,
    ),
    period_s=30.0,
)

#: Light fault cocktail for the migration experiment: enough churn that
#: the recovery machinery stays exercised on both arms, mild enough that
#: load drift — not crashes — dominates the outcome.
MIGRATION_FAULT_PLAN = FaultPlan(
    node_fail_probability=0.01,
    node_recover_probability=0.5,
    link_fail_probability=0.01,
    link_recover_probability=0.5,
    period_s=120.0,
)


# -- builders ------------------------------------------------------------------
# A builder turns an entry's parameters into its arms, starting from
# ``base``: the evaluation's default spec (ACP, α = 0.3, normal QoS) at
# the run's scale, node count and seed.  The figure grids build theirs
# with ``sweep`` in their entries below.

Arms = Tuple[Arm, ...]
Floats = Sequence[float]
Names = Sequence[str]


def _three_phase(scale: ExperimentScale, base: RunSpec, rates: Floats) -> RunSpec:
    """Fig. 8's dynamic workload shape over the adaptability horizon:
    ``rates[i]`` from the i-th third on."""
    duration = scale.adaptability_duration_s
    steps = ((phase * duration / 3.0, rate) for phase, rate in enumerate(rates))
    return replace(base, schedule=RateSchedule.steps(*steps), duration_s=duration)


def _fig8(scale: ExperimentScale, base: RunSpec, target: float) -> Arms:
    # the paper's 40 → 80 → 60 req/min; the fixed arm keeps base's α = 0.3
    base = replace(
        _three_phase(scale, base, (40.0, 80.0, 60.0)), target_success_rate=target
    )
    return (Arm("fixed", base), Arm("adaptive", replace(base, adaptive=True)))


#: The faults experiment's full cocktail: node crashes, link flaps, lossy
#: delayed probes and state-update loss every 15 simulated seconds.
_COCKTAIL = FaultPlan(
    node_fail_probability=0.02,
    node_recover_probability=0.5,
    link_fail_probability=0.01,
    link_recover_probability=0.5,
    probe_loss_probability=0.05,
    probe_delay_ms=2.0,
    max_probe_retries=2,
    state_update_loss_probability=0.10,
    period_s=15.0,
)


def _faults(scale: ExperimentScale, base: RunSpec) -> Arms:
    # both arms see the identical system, workload and fault schedule, so
    # any survival gap is attributable to the recovery policy alone;
    # Fig. 8's three-phase shape scaled down to 6 → 12 → 9 req/min
    base = _three_phase(scale, base, (6.0, 12.0, 9.0))
    return (
        Arm("kill-on-fault", base.with_faults(_COCKTAIL)),
        Arm("recovery", base.with_faults(_COCKTAIL, RecoveryPolicy())),
    )


def _population(
    scale: ExperimentScale, base: RunSpec, scenarios: Names, multipliers: Floats
) -> Arms:
    # every arm shares the system and workload seeds, so two arms differ
    # only in their population profile
    profiles = population_scenarios(
        scale.duration_s, num_client_routers=scale.num_routers
    )
    unknown = [name for name in scenarios if name not in profiles]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; pick from {sorted(profiles)}")
    return tuple(
        Arm(f"{name} {load:g}x", base.with_population(profiles[name].scaled(load)))
        for name in scenarios
        for load in multipliers
    )


def _migrate(scale: ExperimentScale, base: RunSpec) -> Arms:
    # the diurnal curve at 0.75x plus a 4x regional spike, so the peak
    # drives a *subset* of nodes over the high watermark while the rest
    # stay cool enough to receive sessions — deep uniform overload leaves
    # no targets and the plan degrades to recover-only
    duration, routers = scale.duration_s, scale.num_routers
    spike = TrafficEvent.regional_spike(
        start_s=0.45 * duration,
        peak_multiplier=4.0,
        region=(0, max(1, routers // 4)),
        ramp_s=0.05 * duration,
        plateau_s=0.25 * duration,
        decay_s=0.05 * duration,
    )
    diurnal = population_scenarios(duration, num_client_routers=routers)["diurnal"]
    base = base.with_population(replace(diurnal, events=(spike,)).scaled(0.75))
    base = base.with_faults(MIGRATION_FAULT_PLAN, RecoveryPolicy())
    return (
        Arm("recover-only", base),
        Arm("proactive+recover", base.with_migration(DEFAULT_MIGRATION_PLAN)),
    )


# -- views ---------------------------------------------------------------------


@dataclass(frozen=True)
class Panel:
    """One figure of a sweep: ``field`` against each arm's ``x``, one
    series per arm label (only those in ``only``, if given)."""

    figure: str
    y_label: str = "success rate (%)"
    field: str = "success_rate"
    percent: bool = True
    only: Optional[Tuple[str, ...]] = None

    def series(self, outcome: Outcome) -> Dict[str, Series]:
        points: Dict[str, List[Tuple[float, float]]] = {}
        for arm, report in zip(outcome.arms, outcome.reports):
            if self.only is None or arm.label in self.only:
                points.setdefault(arm.label, []).append(
                    (arm.x, getattr(report, self.field))
                )
        return {label: Series(label, tuple(line)) for label, line in points.items()}


@dataclass(frozen=True)
class SeriesView:
    """Figs. 5–7: one figure table per panel."""

    x_label: str
    panels: Tuple[Panel, ...]

    @property
    def files(self) -> Tuple[str, ...]:
        return tuple(f"fig{panel.figure}.txt" for panel in self.panels)

    def figures(self, outcome: Outcome) -> Tuple[FigureResult, ...]:
        return tuple(
            FigureResult(panel.figure, self.x_label, panel.y_label, panel.series(outcome))
            for panel in self.panels
        )

    def render(self, outcome: Outcome) -> Tuple[str, Dict[str, str]]:
        results = zip(self.panels, self.figures(outcome))
        tables = [format_figure_table(fig, percent=panel.percent) for panel, fig in results]
        return _tables(self.files, tables)


@dataclass(frozen=True)
class TimeSeriesView:
    """Fig. 8: one window time-series table per arm, figure ``names[i]``."""

    names: Tuple[str, ...]

    @property
    def files(self) -> Tuple[str, ...]:
        return tuple(f"fig{name}.txt" for name in self.names)

    def figures(self, outcome: Outcome) -> Tuple[Fig8Result, ...]:
        return tuple(
            Fig8Result(
                name, report.window_samples, arm.spec.schedule,
                arm.spec.target_success_rate if arm.spec.adaptive else None,
            )
            for name, arm, report in zip(self.names, outcome.arms, outcome.reports)
        )

    def render(self, outcome: Outcome) -> Tuple[str, Dict[str, str]]:
        return _tables(self.files, [format_fig8_table(r) for r in self.figures(outcome)])


def _tables(files: Sequence[str], tables: Sequence[str]) -> Tuple[str, Dict[str, str]]:
    """Figure tables as printed, and as one result file each."""
    return "\n\n".join(tables), {name: t + "\n" for name, t in zip(files, tables)}


@dataclass(frozen=True)
class TableView:
    """An arms table, and a JSON file echoing the run's settings with one
    block per arm: the report, every tabled field and ``extra`` fields."""

    file: str
    title: str
    label: str
    columns: Tuple[Column, ...]
    extra: Tuple[str, ...] = ()

    @property
    def files(self) -> Tuple[str, ...]:
        return (self.file,)

    def figures(self, outcome: Outcome) -> Tuple[FigureResult, ...]:
        return ()  # an arms table plots no figure

    def render(self, outcome: Outcome) -> Tuple[str, Dict[str, str]]:
        arms = [(arm.label, report) for arm, report in zip(outcome.arms, outcome.reports)]
        fields = [column.field for column in self.columns] + list(self.extra)
        payload = arms_to_dict(outcome.settings, arms, fields)
        return format_arms_table(self.title, self.label, self.columns, arms), {
            self.file: json.dumps(payload, indent=2, default=asdict) + "\n"
        }


# -- entries -------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One experiment: its committed parameters, arms and rendering."""

    name: str
    help: str
    build: Callable[..., Arms]
    view: Union[SeriesView, TimeSeriesView, TableView]
    scale: ExperimentScale
    #: the builder's keyword arguments, one ``--NAME`` CLI option each
    params: Mapping[str, Any] = field(default_factory=dict)
    num_nodes: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def arms(self, **overrides: Any) -> Arms:
        """The arms of the committed parameters, or of overridden ones."""
        return self._resolve(**overrides)[1]

    def run(self, workers: Optional[int] = None, **overrides: Any) -> Outcome:
        """Run every arm (on ``workers`` processes; identical results)."""
        settings, arms = self._resolve(**overrides)
        reports = run_specs([arm.spec for arm in arms], workers=workers)
        return Outcome(self, settings, arms, tuple(reports))

    def _resolve(
        self, scale: Optional[ExperimentScale] = None, num_nodes: Optional[int] = None,
        seed: Optional[int] = None, **overrides: Any,
    ) -> Tuple[Dict[str, Any], Arms]:
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise TypeError(f"{self.name} has no parameters {unknown}")
        scale = scale or self.scale
        num_nodes = num_nodes or self.num_nodes
        seed = self.seed if seed is None else seed
        params = {**self.params, **overrides}
        base = default_spec(scale=scale, num_nodes=num_nodes, seed=seed)
        settings = {"scale": scale, "num_nodes": num_nodes, "seed": seed, **params}
        return settings, self.build(scale, base, **params)


@dataclass(frozen=True)
class Outcome:
    """An experiment's arms with their reports, and their rendering."""

    experiment: Experiment
    settings: Mapping[str, Any]
    arms: Arms
    reports: Tuple[SimulationReport, ...]

    def report(self, label: str) -> SimulationReport:
        for arm, report in zip(self.arms, self.reports):
            if arm.label == label:
                return report
        raise KeyError(f"{self.experiment.name} has no arm {label!r}")

    @property
    def figures(self) -> Tuple[Union[FigureResult, Fig8Result], ...]:
        return self.experiment.view.figures(self)

    @property
    def text(self) -> str:
        """The rendered tables, as printed."""
        return self.experiment.view.render(self)[0]

    def write(self, directory: Union[str, Path]) -> None:
        """Write each result file into ``directory``, replacing any there."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in self.experiment.view.render(self)[1].items():
            (directory / name).write_text(content, encoding="utf-8")


#: Fig. 5's trimmed ratio grid: dense where the curve bends, sparse at
#: the plateau
FIG5_RATIOS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)

_REQUESTS = Column("requests", "total_requests")
_SUCCESS = Column("success (%)", "success_rate", ".1f", percent=True)
_P99 = Column("p99 setup (ms)", "p99_setup_latency_ms", ".1f")
_SURVIVAL = Column("survival (%)", "session_survival_rate", ".1f", percent=True)

_ENTRIES = (
    Experiment(
        "fig5a", "success vs probing ratio by load (Fig. 5(a))",
        lambda scale, base, rates, ratios: sweep(
            base, rates, "{:g} reqs/min", RunSpec.with_rate, ratios, RunSpec.with_ratio
        ),
        SeriesView("probing ratio", (Panel("5a"),)),
        FAST_SCALE, dict(rates=(50.0, 100.0), ratios=FIG5_RATIOS),
    ),
    Experiment(
        "fig5b", "success vs probing ratio by QoS (Fig. 5(b))",
        lambda scale, base, levels, rate, ratios: sweep(
            base.with_rate(rate), levels, "{} QoS", RunSpec.with_qos, ratios,
            RunSpec.with_ratio,
        ),
        SeriesView("probing ratio", (Panel("5b"),)),
        FAST_SCALE, dict(levels=("high", "very_high"), rate=50.0, ratios=FIG5_RATIOS),
    ),
    Experiment(
        "fig6", "efficiency vs request rate (Fig. 6)",
        lambda scale, base, rates, algorithms: sweep(
            base, algorithms, "{}", RunSpec.with_algorithm, rates, RunSpec.with_rate
        ),
        SeriesView(
            "request rate (reqs/min)",
            (
                Panel("6a"),
                Panel("6b", "overhead (msgs/min)", "overhead_per_min", False,
                      OVERHEAD_ALGORITHMS),
            ),
        ),
        FAST_SCALE,
        dict(rates=(20.0, 40.0, 60.0, 80.0, 100.0), algorithms=ALGORITHMS),
    ),
    Experiment(
        "fig7", "scalability vs node count (Fig. 7)",
        # the node count is the x axis; candidate pools scale with it (the
        # deployment places components per node)
        lambda scale, base, counts, rate, algorithms: sweep(
            base.with_rate(rate), algorithms, "{}", RunSpec.with_algorithm, counts,
            lambda spec, count: replace(spec, system=spec.system.with_nodes(count)),
        ),
        SeriesView(
            "node number",
            (
                Panel("7a"),
                Panel("7b", "overhead (msgs/min)", "overhead_per_min", False,
                      OVERHEAD_ALGORITHMS),
            ),
        ),
        FAST_SCALE,
        dict(counts=(200, 300, 400, 500, 600), rate=80.0, algorithms=ALGORITHMS),
    ),
    # (a) a fixed probing ratio vs (b) adaptive tuning under the dynamic
    # workload.  The target is 75 %, not the paper's 90 %: our phases
    # saturate lower (≈85 / 70 / 78 %), and 75 % keeps the paper's relative
    # position (EXPERIMENTS.md, "Target repositioning"); ``--target 0.9``
    # runs the literal setting, with α railed at 1 through the overload.
    Experiment(
        "fig8", "adaptability under dynamic load (Fig. 8)", _fig8,
        TimeSeriesView(("8a", "8b")),
        FAST_SCALE, dict(target=0.75), seed=3,
    ),
    # one fault-heavy point: a mid-size mesh, Fig. 8's three-phase shape
    # scaled down, and the full cocktail
    Experiment(
        "faults", "session survival under the fault cocktail", _faults,
        TableView(
            "BENCH_faults.json",
            "Fault tolerance: session survival under the fault cocktail",
            "mode",
            (
                Column("sessions", "sessions_opened"),
                Column("disrupted", "sessions_disrupted"),
                Column("recovered", "sessions_recovered"),
                Column("killed", "sessions_killed"),
                _SURVIVAL,
                Column("mean recovery (s)", "mean_recovery_latency_s", ".1f"),
                Column("recovery probes", "recovery_probe_messages"),
            ),
            extra=("state_updates_lost", "probe_messages_lost"),
        ),
        ExperimentScale("faults", 800, 900.0, 900.0, 150.0, 100_000),
        seed=11,
    ),
    # FAST_SCALE's substrate on a 5-minute horizon: 100× means ~25k
    # arrivals, which keeps the 3×3 sweep to a couple of minutes while
    # giving five sampling windows per arm
    Experiment(
        "population", "population-scale workloads: overload, diurnal, flash crowds",
        _population,
        TableView(
            "BENCH_population.json",
            "Population-scale workloads: SLO summary by scenario and load",
            "scenario",
            (
                _REQUESTS,
                _SUCCESS,
                Column("p50 setup (ms)", "p50_setup_latency_ms", ".1f"),
                _P99,
                Column("admission pressure (%)", "admission_pressure", ".1f", True),
                Column("peak sessions", "peak_open_sessions"),
                Column("peak queue", "peak_transient_reservations"),
            ),
        ),
        ExperimentScale("population", 800, 300.0, 300.0, 60.0, 30_000),
        dict(
            scenarios=("steady", "diurnal", "flash_crowd"),
            multipliers=(1.0, 10.0, 100.0),
        ),
    ),
    # a 30-minute horizon: the regime where proactive migration has both
    # a reason to fire and cool targets to fire at (see ``_migrate``)
    Experiment(
        "migrate", "proactive live migration vs recover-only under load drift",
        _migrate,
        TableView(
            "BENCH_migration.json",
            "Proactive reconfiguration: recover-only vs proactive+recover",
            "mode",
            (
                _REQUESTS,
                _SUCCESS,
                _P99,
                _SURVIVAL,
                Column("migrated", "sessions_migrated"),
                Column("slack aborts", "migrations_aborted_on_slack"),
                Column("paused (s)", "migration_paused_stream_s", ".2f"),
                Column("probes", "migration_probe_messages"),
            ),
            extra=(
                "sessions_opened",
                "sessions_disrupted",
                "sessions_recovered",
                "sessions_killed",
            ),
        ),
        ExperimentScale("migrate", 800, 1800.0, 1800.0, 60.0, 30_000),
    ),
    Experiment(
        "compare", "all algorithms at one workload point",
        lambda scale, base, rate, algorithms: tuple(
            Arm(name, base.with_rate(rate).with_algorithm(name)) for name in algorithms
        ),
        TableView(
            "compare.json",
            "Algorithm comparison: identical systems and request sequences",
            "algorithm",
            (
                _REQUESTS,
                _SUCCESS,
                Column("probes/min", "probe_messages_per_min", ".0f"),
                Column("state msgs/min", "state_messages_per_min", ".0f"),
                Column("overhead/min", "overhead_per_min", ".0f"),
                Column("mean phi", "mean_phi", ".2f"),
            ),
        ),
        FAST_SCALE, dict(rate=60.0, algorithms=ALGORITHMS),
    ),
)

EXPERIMENTS: Mapping[str, Experiment] = MappingProxyType(
    {entry.name: entry for entry in _ENTRIES}
)
