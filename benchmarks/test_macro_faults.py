"""Macro benchmark: session survival under the full fault cocktail.

The fault-model expansion (link flaps, lossy control plane, stale state)
only earns its keep if crash-triggered re-composition measurably saves
sessions that the legacy kill-on-fault policy loses.  The ``faults``
experiment runs the *same* Fig. 8-style simulation (identical system,
workload, and fault schedule — every fault stream is seed-derived) twice:

* **kill-on-fault** — faults kill every session they disrupt;
* **recovery** — disrupted sessions enter ``RECOVERING`` and are
  re-composed against the live topology within the recovery deadline.

It checks the recovery run's session survival rate strictly exceeds the
kill-on-fault run's, that a zero-fault :class:`FaultPlan` is
decision-identical to a fault-free spec (the fault plumbing must be
invisible when off), and writes

    benchmarks/results/BENCH_faults.json

with the survival figures EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import EXPERIMENTS, run_spec
from repro.simulation import FaultPlan

FAULTS = EXPERIMENTS["faults"]

#: the cocktail on a smaller mesh and a shorter horizon, for the
#: invisibility and replay guards
SMALL = dict(
    scale=replace(
        FAULTS.scale, num_routers=400, duration_s=600.0, adaptability_duration_s=600.0
    ),
    num_nodes=200,
)


def test_macro_faults_survival(publish):
    outcome = FAULTS.run()
    publish(outcome)
    baseline = outcome.report("kill-on-fault")
    resilient = outcome.report("recovery")

    # the cocktail actually bit: sessions were disrupted, probes were
    # lost, and state updates went missing in both runs
    for report in (baseline, resilient):
        assert report.sessions_disrupted > 0
        assert report.probe_messages_lost > 0
        assert report.state_updates_lost > 0
    # kill-on-fault kills every disrupted session
    assert baseline.sessions_killed == baseline.sessions_disrupted
    assert baseline.sessions_recovered == 0
    # re-composition saved sessions the baseline lost
    assert resilient.sessions_recovered > 0
    assert resilient.session_survival_rate > baseline.session_survival_rate
    assert resilient.mean_recovery_latency_s > 0.0
    assert resilient.recovery_probe_messages > 0


def test_zero_fault_plan_is_invisible():
    """A zero plan must not perturb a run: same decisions, same report.

    This is the macro-scale guard behind the fault plumbing — threading
    the ``ControlChannel`` and ``FaultPlan`` seams through the composer,
    router, and state layers must leave fault-free runs byte-identical.
    (``tests/test_determinism.py`` holds the unit-scale version.)
    """
    kill_on_fault, _recovery = FAULTS.arms(**SMALL)
    plain = run_spec(kill_on_fault.spec.with_faults(None))
    zeroed = run_spec(kill_on_fault.spec.with_faults(FaultPlan.none()))
    assert repr(plain) == repr(zeroed)


def test_cocktail_is_deterministic():
    """Same seed + same plan ⇒ byte-identical fault-cocktail reports."""
    _kill_on_fault, recovery = FAULTS.arms(**SMALL)
    plan = replace(recovery.spec.faults, period_s=20.0)
    spec = recovery.spec.with_faults(plan, recovery.spec.recovery)
    assert repr(run_spec(spec)) == repr(run_spec(spec))
