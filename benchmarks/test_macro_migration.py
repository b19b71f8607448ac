"""Macro benchmark: proactive live migration vs recover-only.

The live-migration subsystem only earns its keep if moving sessions off
sustained-hot nodes measurably helps the *next* requests — fewer probes
dropped at saturated nodes, higher composition success, no worse setup
latency — after paying its own honestly-reported costs (paused-stream
time, slack aborts, probe traffic).  The ``migrate`` experiment runs the
*same* Fig. 8-style simulation (identical system, diurnal +
regional-spike workload, and light fault cocktail — every stream is
seed-derived) twice:

* **recover-only** — faults trigger re-composition, but sessions stay
  pinned to whatever nodes the spike heated up;
* **proactive+recover** — the same recovery policy plus the live
  rebalancing rounds of :data:`~repro.experiments.DEFAULT_MIGRATION_PLAN`.

It checks the proactive run strictly beats recover-only on success rate
with p99 setup latency no worse, that migration costs are actually paid
and recorded (the win must not be free), that a zero plan is
decision-identical to no plan at macro scale, and writes

    benchmarks/results/BENCH_migration.json

with the figures EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import EXPERIMENTS, run_spec
from repro.middleware.migration import MigrationPlan

MIGRATE = EXPERIMENTS["migrate"]

#: a 10-minute horizon on 200 nodes, for the invisibility and replay guards
SMALL = dict(
    scale=replace(MIGRATE.scale, duration_s=600.0, adaptability_duration_s=600.0),
    num_nodes=200,
)


def test_macro_migration(publish):
    outcome = MIGRATE.run()
    publish(outcome)
    recover_only = outcome.report("recover-only")
    proactive = outcome.report("proactive+recover")

    # both arms saw the identical workload and stayed exercised
    assert recover_only.total_requests == proactive.total_requests > 0
    assert recover_only.sessions_disrupted > 0
    assert proactive.sessions_disrupted > 0
    # the recover-only arm never touches the migration machinery
    assert recover_only.sessions_migrated == 0
    assert recover_only.migration_probe_messages == 0

    # the win: strictly better success, p99 setup no worse
    assert proactive.success_rate > recover_only.success_rate
    assert proactive.p99_setup_latency_ms <= recover_only.p99_setup_latency_ms
    # ... and it was not free: sessions actually moved, streams actually
    # paused, and the slack gate actually rejected some transfers
    # (graceful degradation is exercised, not vestigial)
    assert proactive.sessions_migrated > 0
    assert proactive.migration_paused_stream_s > 0.0
    assert proactive.migrations_aborted_on_slack > 0
    assert proactive.migration_probe_messages > 0


def test_zero_migration_plan_is_invisible():
    """A zero plan must not perturb a run: same decisions, same report.

    This is the macro-scale guard behind the migration plumbing —
    threading the rebalance rounds and report counters through the
    simulator must leave migration-free runs byte-identical.
    (``tests/test_migration_live.py`` holds the unit-scale version.)
    """
    recover_only, proactive = MIGRATE.arms(**SMALL)
    # with a zero plan the "proactive" arm builds no migration manager,
    # so both arms of the same experiment must be byte-identical
    zeroed = proactive.spec.with_migration(MigrationPlan.none())
    assert repr(run_spec(recover_only.spec)) == repr(run_spec(zeroed))


def test_migration_run_is_deterministic():
    """Same seed + same plan => byte-identical reports on both arms."""
    first = MIGRATE.run(**SMALL)
    second = MIGRATE.run(**SMALL)
    assert repr(first.reports) == repr(second.reports)
