#!/usr/bin/env python3
"""Proactive reconfiguration: live session migration off sustained hotspots.

A diurnal load curve plus a regional flash crowd heats one corner of the
mesh: the composer keeps placing sessions near the spiking routers, those
nodes cross the migration high watermark, and every later request probing
them gets dropped at admission.  This example runs the same workload
twice — recovery-only, and recovery plus hotspot-driven live migration —
and shows what rebalancing buys and what it costs:

* per-minute node-utilisation spread (mean / p95 / max) around the spike,
  sampled identically in both runs, so the hotspot is visible heating up
  and — in the proactive run — draining;
* the migration ledger: sessions moved, paused-stream seconds, transfers
  aborted because the pause would blow the session's QoS slack
  (graceful degradation), and probe traffic spent planning;
* the outcome gap: composition success and p99 setup latency.

Run:  python examples/proactive_migration.py     (~1 minute)
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import build_simulator
from repro.model.qos_model import LoadDependentQoSModel

MIGRATE = EXPERIMENTS["migrate"]
DURATION = MIGRATE.scale.duration_s  # 30 simulated minutes
SPIKE_START = 0.45 * DURATION


def run(spec):
    """Run one arm, sampling the utilisation spread once per minute."""
    simulator = build_simulator(spec)
    spread = []

    def sample():
        loads = sorted(
            LoadDependentQoSModel.utilization(node.available, node.capacity)
            for node in simulator.system.network.nodes
            if node.alive
        )
        spread.append(
            (
                simulator.scheduler.now,
                sum(loads) / len(loads),
                loads[int(0.95 * (len(loads) - 1))],
                loads[-1],
            )
        )

    # the scheduler is public: ride a read-only probe alongside the run
    # (pure observation — it draws no randomness and changes no state)
    simulator.scheduler.schedule_periodic(60.0, sample, name="spread")
    report = simulator.run(spec.duration_s)
    return report, spread


def main() -> None:
    recover_only_arm, proactive_arm = MIGRATE.arms()
    print("running 30 simulated minutes twice (diurnal + 4x regional "
          "spike at t=810s)...\n")
    recover_only, spread_without = run(recover_only_arm.spec)
    proactive, spread_with = run(proactive_arm.spec)

    print("node-utilisation spread, recover-only vs proactive "
          "(one row per 3 minutes):")
    print(f"{'t (s)':>6}  {'mean':>5} {'p95':>5} {'max':>5}   "
          f"{'mean':>5} {'p95':>5} {'max':>5}")
    for (t, mean0, p950, max0), (_, mean1, p951, max1) in list(
        zip(spread_without, spread_with)
    )[::3]:
        marker = "  <- spike" if SPIKE_START <= t <= 0.75 * DURATION else ""
        print(f"{t:>6.0f}  {mean0:>5.2f} {p950:>5.2f} {max0:>5.2f}   "
              f"{mean1:>5.2f} {p951:>5.2f} {max1:>5.2f}{marker}")

    print()
    print("migration ledger (proactive run):")
    print(f"  sessions migrated        {proactive.sessions_migrated}")
    print(f"  paused-stream time       {proactive.migration_paused_stream_s:.1f} s")
    print(f"  aborted on QoS slack     {proactive.migrations_aborted_on_slack}")
    print(f"  planning probe messages  {proactive.migration_probe_messages}")

    print()
    print(f"{'':>24}  {'recover-only':>12}  {'proactive':>10}")
    print(f"{'requests':>24}  {recover_only.total_requests:>12}  "
          f"{proactive.total_requests:>10}")
    print(f"{'composition success':>24}  {100 * recover_only.success_rate:>11.1f}%  "
          f"{100 * proactive.success_rate:>9.1f}%")
    print(f"{'p99 setup latency':>24}  {recover_only.p99_setup_latency_ms:>10.1f}ms  "
          f"{proactive.p99_setup_latency_ms:>8.1f}ms")
    print(f"{'session survival':>24}  "
          f"{100 * recover_only.session_survival_rate:>11.1f}%  "
          f"{100 * proactive.session_survival_rate:>9.1f}%")

    print()
    print("the spike heats the busiest nodes past the 0.75 watermark in "
          "both runs; only the proactive run drains them, and every "
          "transfer it could not afford (pause > QoS slack) was refused "
          "and counted instead of silently degrading the stream.")


if __name__ == "__main__":
    main()
