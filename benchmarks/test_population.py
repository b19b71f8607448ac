"""Population-scale workload benchmark: SLO behaviour from idle to overload.

Runs the ``population`` experiment — the standard scenario set
(``steady``, ``diurnal``, ``flash_crowd``) across load multipliers
1× / 10× / 100× on the mean active population — and records, per
(scenario, multiplier) arm, the whole-run and per-window SLO series —
success rate, p50/p99 session-setup latency, admission pressure, and the
open-session / transient-reservation gauges — into
``benchmarks/results/BENCH_population.json``.

The run asserts the sweep's defining contract: at 1× the system is healthy
(success > 0.8), while at the top multiplier admission is *non-degenerate*
— success strictly below 1.0, admission pressure visible, sessions piling
up — and nothing crashes.  Note the transient-reservation gauge reads ~0
in fault-free serial runs (probe reservations are committed or cancelled
within each ``find``); overload shows up in ``peak_open_sessions`` and
``admission_pressure`` instead.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS

POPULATION = EXPERIMENTS["population"]


def test_population_sweep(publish):
    outcome = POPULATION.run()
    publish(outcome)

    params = POPULATION.params
    top = max(params["multipliers"])
    for scenario in params["scenarios"]:
        for multiplier in params["multipliers"]:
            label = f"{scenario} {multiplier:g}x"
            report = outcome.report(label)
            assert report.total_requests > 0, f"{label} produced no arrivals"
            # every window's SLO series is well-formed
            for sample in report.window_samples:
                assert 0.0 <= sample.admission_pressure <= 1.0
                if sample.p50_setup_latency_ms is not None:
                    assert sample.p99_setup_latency_ms is not None
                    assert (
                        sample.p99_setup_latency_ms
                        >= sample.p50_setup_latency_ms
                    )
            if multiplier == 1.0 and scenario == "steady":
                # the unmodulated baseline must be healthy at 1x — the
                # event scenarios are allowed to hurt (a 6x flash crowd
                # saturating admission at 1x is the point, not a bug)
                assert report.success_rate > 0.8, (
                    f"steady@1x unhealthy: {report.success_rate:.3f}"
                )
            if multiplier == top:
                # overload is non-degenerate: requests fail under
                # contention, sessions pile up, and the run completes
                assert report.success_rate < 1.0, f"{label} shows no overload"
                assert report.admission_pressure > 0.0, (
                    f"{label} shows no admission pressure"
                )
                assert report.peak_open_sessions > 0
