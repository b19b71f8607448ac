"""Building blocks of the evaluation's experiments (paper Section 4.2).

The plotted data — :class:`Series` and :class:`FigureResult` for the
swept Figs. 5–7, :class:`Fig8Result` for the adaptability time series —
and the helpers the experiment registry (:mod:`repro.experiments.registry`)
builds its arms from:

* :func:`sweep` — the grid of a Figs. 5–7 panel, one arm per
  (series, x) cell;
* :func:`population_scenarios` — the population experiment's scenarios.

Every arm is a self-seeding :class:`~repro.experiments.config.RunSpec`,
so an experiment's arms run serially or on a process pool
(:func:`repro.experiments.runner.run_specs`) with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple, TypeVar

from repro.experiments.config import RunSpec
from repro.simulation.metrics import WindowSample
from repro.simulation.population import (
    DiurnalCurve,
    PopulationProfile,
    TrafficEvent,
)
from repro.simulation.workload import RateSchedule

V = TypeVar("V")
X = TypeVar("X", bound=float)


@dataclass(frozen=True)
class Arm:
    """One labelled run of an experiment: a table row and JSON block, or
    one point of a plotted series at sweep coordinate ``x``."""

    label: str
    spec: RunSpec
    x: float = 0.0


@dataclass(frozen=True)
class Series:
    """One plotted line: a label plus (x, y) points."""

    label: str
    points: Tuple[Tuple[float, float], ...]

    def xs(self) -> Tuple[float, ...]:
        return tuple(x for x, _y in self.points)

    def ys(self) -> Tuple[float, ...]:
        return tuple(y for _x, y in self.points)


@dataclass(frozen=True)
class FigureResult:
    """A family of series keyed by label, plus run metadata."""

    figure: str
    x_label: str
    y_label: str
    series: Dict[str, Series]


@dataclass(frozen=True)
class Fig8Result:
    """Time series for one adaptability run."""

    figure: str
    samples: Tuple[WindowSample, ...]
    schedule: RateSchedule
    target_success_rate: Optional[float]


def sweep(
    base: RunSpec,
    series: Sequence[V],
    label: str,
    vary: Callable[[RunSpec, V], RunSpec],
    xs: Sequence[X],
    at: Callable[[RunSpec, X], RunSpec],
) -> Tuple[Arm, ...]:
    """The arms of a figure grid, series-major: ``at(vary(base, value), x)``
    for every series value and x, labelled ``label.format(value)``."""
    return tuple(
        Arm(label.format(value), at(vary(base, value), x), x)
        for value in series
        for x in xs
    )


def population_scenarios(
    duration_s: float, num_client_routers: int
) -> Dict[str, PopulationProfile]:
    """The standard scenario set at 1× load (25 users × 2 req/min),
    compressed into the horizon.

    * ``steady`` — the population process alone (Poisson-resampled users,
      no modulation): the paper's flat regime, but rate now emerges from
      users × per-user rate;
    * ``diurnal`` — one full day/night cycle squeezed into the run
      (trough 0.3×, peak 1.5×), so every run sees a quiet phase, a climb,
      and a peak;
    * ``flash_crowd`` — steady traffic plus a 6× system-wide surge over
      the middle third and a 3× regional spike (first quarter of the
      client-router space) late in the run.
    """
    curve = DiurnalCurve(
        (
            (0.15 * duration_s, 0.3),
            (0.60 * duration_s, 1.5),
        ),
        period_s=duration_s,
    )
    flash = TrafficEvent.flash_crowd(
        start_s=0.35 * duration_s,
        peak_multiplier=6.0,
        ramp_s=0.05 * duration_s,
        plateau_s=0.15 * duration_s,
        decay_s=0.10 * duration_s,
    )
    spike = TrafficEvent.regional_spike(
        start_s=0.70 * duration_s,
        peak_multiplier=3.0,
        region=(0, max(1, num_client_routers // 4)),
        ramp_s=0.03 * duration_s,
        plateau_s=0.10 * duration_s,
        decay_s=0.05 * duration_s,
    )
    base = PopulationProfile(mean_active_users=25.0, requests_per_user_per_min=2.0)
    return {
        "steady": base,
        "diurnal": replace(base, diurnal=curve),
        "flash_crowd": replace(base, events=(flash, spike)),
    }
