#!/usr/bin/env python3
"""Failure resilience: composition under node churn.

The paper connects nodes "into an overlay mesh" *for failure resilience*.
This example makes that concrete: it runs the same workload twice on the
same system — once on a stable system, once with stochastic node crashes
and recoveries — and reports what churn costs:

* sessions killed mid-flight when their host crashes,
* composition success (ACP routes probes around dead nodes and relays), and
* how the overlay re-routes virtual links around crashed relay nodes.

Run:  python examples/failure_resilience.py
"""

import random

from repro.core import ACPComposer
from repro.simulation import (
    FailureInjector,
    FaultPlan,
    RateSchedule,
    StreamProcessingSimulator,
    SystemConfig,
    WorkloadGenerator,
    build_system,
)
from repro.discovery import DeploymentProfile

#: request arrival rate of both runs, in requests per minute
RATE_PER_MIN = 25.0


def run(with_failures: bool):
    config = SystemConfig(
        num_routers=400,
        num_nodes=100,
        deployment=DeploymentProfile(components_per_node=(2, 3)),
        seed=21,
    )
    system = build_system(config)
    injector = None
    if with_failures:
        injector = FailureInjector(
            system.network,
            system.router,
            plan=FaultPlan(
                node_fail_probability=0.03,  # per node per minute round
                node_recover_probability=0.5,
                period_s=60.0,
            ),
            rng=random.Random(22),
        )
    workload = WorkloadGenerator(
        system.templates,
        RateSchedule.constant(RATE_PER_MIN),
        num_client_routers=config.num_routers,
        seed=23,
    )
    composer = ACPComposer(
        system.composition_context(rng=random.Random(24)), probing_ratio=0.5
    )
    simulator = StreamProcessingSimulator(
        system, composer, workload, sampling_period_s=300.0, failures=injector
    )
    report = simulator.run(1800.0)  # 30 simulated minutes
    return report, injector


def main() -> None:
    print(f"running 30 simulated minutes at {RATE_PER_MIN:.0f} requests/min, "
          f"twice...\n")
    stable, _ = run(with_failures=False)
    churned, injector = run(with_failures=True)

    crashes = [e for e in injector.events if e.kind == "crash"]
    recoveries = [e for e in injector.events if e.kind == "recover"]
    print(f"churn injected: {len(crashes)} crashes, {len(recoveries)} "
          f"recoveries, {injector.sessions_killed} running sessions killed")
    # replay the event log: each round records recoveries before crashes,
    # so the running count peaks where the outage really did
    down = peak = 0
    for event in injector.events:
        down += {"crash": 1, "recover": -1}.get(event.kind, 0)
        peak = max(peak, down)
    print(f"worst simultaneous outage: {peak} nodes down at once, "
          f"cap {injector.max_concurrent_failures}")
    # a killed session consumed resources and still failed its user: count
    # *completed* service, not just composition admissions
    stable_completed = stable.successes
    churn_completed = churned.successes - injector.sessions_killed
    print()
    print(f"{'':>24}  {'stable':>8}  {'under churn':>11}")
    print(f"{'requests':>24}  {stable.total_requests:>8}  "
          f"{churned.total_requests:>11}")
    print(f"{'composition success':>24}  {100 * stable.success_rate:>7.1f}%  "
          f"{100 * churned.success_rate:>10.1f}%")
    print(f"{'sessions completed':>24}  {stable_completed:>8}  "
          f"{churn_completed:>11}")
    print(f"{'probe msgs/min':>24}  {stable.probe_messages_per_min:>8.0f}  "
          f"{churned.probe_messages_per_min:>11.0f}")
    print()
    lost = stable_completed - churn_completed
    print(f"churn destroyed {injector.sessions_killed} running sessions "
          f"({lost} fewer completions than the stable run); note that "
          f"*composition* success can even rise under churn — killed "
          f"sessions free resources — which is why completed service is "
          f"the honest resilience metric.  Every composition that did "
          f"succeed was placed entirely on live nodes, with virtual links "
          f"re-routed around crashed relays.")


if __name__ == "__main__":
    main()
