"""Rendering experiment results as the paper's rows and as JSON.

Plain-text tables: one row per x value, one column per series — the same
numbers the paper plots in Figs. 5–8 — and arms tables, one row per
labelled run with declared report columns.  Printable from benchmarks and
the examples without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.experiments.figures import Fig8Result, FigureResult
from repro.simulation.metrics import SimulationReport


def format_figure_table(result: FigureResult, percent: bool = True) -> str:
    """Render a multi-series figure as an aligned text table.

    ``percent`` scales y values by 100 (success rates); overhead figures
    pass False.
    """
    labels = list(result.series)
    xs: List[float] = []
    for series in result.series.values():
        for x, _y in series.points:
            if x not in xs:
                xs.append(x)
    xs.sort()

    header = [result.x_label] + labels
    rows: List[List[str]] = []
    for x in xs:
        row = [f"{x:g}"]
        for label in labels:
            lookup = dict(result.series[label].points)
            y = lookup.get(x)
            if y is None:
                row.append("-")
            elif percent:
                row.append(f"{100.0 * y:.1f}")
            else:
                row.append(f"{y:.1f}")
        rows.append(row)
    title = f"Figure {result.figure}: {result.y_label} vs {result.x_label}"
    return title + "\n" + align_rows([header] + rows)


def format_fig8_table(result: Fig8Result) -> str:
    """Render an adaptability time series: time, rate, success, ratio."""
    header = ["time (min)", "load (reqs/min)", "success rate (%)", "probing ratio"]
    rows = []
    for sample in result.samples:
        rows.append(
            [
                f"{sample.time / 60.0:.0f}",
                f"{result.schedule.rate_at(sample.time):g}",
                f"{100.0 * sample.success_rate:.1f}",
                "-" if sample.probing_ratio is None else f"{sample.probing_ratio:.1f}",
            ]
        )
    title = f"Figure {result.figure}"
    if result.target_success_rate is not None:
        title += f" (adaptive, target {100 * result.target_success_rate:.0f}%)"
    else:
        title += " (fixed probing ratio)"
    return title + "\n" + align_rows([header] + rows)


@dataclass(frozen=True)
class Column:
    """One arms-table column: a report field and how its cell prints."""

    header: str
    field: str
    #: format spec of the value, e.g. ".1f"
    spec: str = ""
    #: print the fraction as a percentage
    percent: bool = False

    def cell(self, report: SimulationReport) -> str:
        value = getattr(report, self.field)
        if value is None:
            return "-"
        return format(100.0 * value if self.percent else value, self.spec)


def format_arms_table(
    title: str,
    label: str,
    columns: Sequence[Column],
    arms: Iterable[Tuple[str, SimulationReport]],
) -> str:
    """Render labelled reports under ``title``, one row each: the arm's
    label under the ``label`` header, then one cell per column."""
    rows = [[label] + [column.header for column in columns]]
    for arm_label, report in arms:
        rows.append([arm_label] + [column.cell(report) for column in columns])
    return title + "\n" + align_rows(rows)


def arms_to_dict(
    config: Mapping[str, Any],
    arms: Iterable[Tuple[str, SimulationReport]],
    fields: Sequence[str] = (),
) -> Dict[str, Any]:
    """Labelled reports as one JSON payload: ``config`` echoes the
    parameters (dataclass values serialise with ``json.dumps(...,
    default=dataclasses.asdict)``), then one block per arm keyed by its
    label, holding :func:`report_to_dict` plus the report ``fields``."""
    payload: Dict[str, Any] = {"config": dict(config)}
    for arm_label, report in arms:
        block = report_to_dict(report)
        block.update((name, getattr(report, name)) for name in fields)
        payload[arm_label] = block
    return payload


def report_to_dict(report: SimulationReport) -> Dict[str, Any]:
    """A simulation report as a JSON-serialisable dict."""
    return {
        "algorithm": report.algorithm,
        "duration_s": report.duration_s,
        "total_requests": report.total_requests,
        "successes": report.successes,
        "success_rate": report.success_rate,
        "probe_messages": report.probe_messages,
        "setup_messages": report.setup_messages,
        "state_update_messages": report.state_update_messages,
        "aggregation_messages": report.aggregation_messages,
        "overhead_per_min": report.overhead_per_min,
        "mean_phi": report.mean_phi,
        "failure_reasons": dict(report.failure_reasons),
        "p50_setup_latency_ms": report.p50_setup_latency_ms,
        "p99_setup_latency_ms": report.p99_setup_latency_ms,
        "admission_pressure": report.admission_pressure,
        "peak_open_sessions": report.peak_open_sessions,
        "peak_transient_reservations": report.peak_transient_reservations,
        "window_samples": [
            {
                "time": sample.time,
                "success_rate": sample.success_rate,
                "requests": sample.requests,
                "probing_ratio": sample.probing_ratio,
                "p50_setup_latency_ms": sample.p50_setup_latency_ms,
                "p99_setup_latency_ms": sample.p99_setup_latency_ms,
                "admission_pressure": sample.admission_pressure,
                "open_sessions": sample.open_sessions,
                "transient_reservations": sample.transient_reservations,
            }
            for sample in report.window_samples
        ],
    }


def align_rows(rows: Sequence[Sequence[str]]) -> str:
    """Column-align rows of strings (right-justified, two-space gaps)."""
    widths = [0] * max(len(row) for row in rows)
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)
