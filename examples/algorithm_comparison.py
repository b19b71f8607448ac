#!/usr/bin/env python3
"""Algorithm comparison: all six composition algorithms on one workload.

Runs the paper's six algorithms — Optimal, ACP, SP, RP, Random, Static —
over identical systems and identical request sequences (same seeds) and
prints the whole-run comparison: success rate, probe overhead, state
maintenance overhead, and mean congestion aggregation of the selected
compositions.  This is a single point of the Fig. 6 sweep; the optimal
algorithm's exhaustive search dominates the few minutes of wall time.

Run:  python examples/algorithm_comparison.py
"""

from repro.experiments import EXPERIMENTS


def main() -> None:
    compare = EXPERIMENTS["compare"]
    spec = compare.arms(num_nodes=200, seed=2)[0].spec
    print(
        f"system: {spec.system.num_nodes} nodes, "
        f"workload: {spec.schedule.rate_at(0):g} requests/min for "
        f"{spec.duration_s / 60:.0f} simulated minutes, "
        f"probing ratio {spec.probing_ratio}"
    )
    print("running all six algorithms on identical request sequences...\n")

    outcome = compare.run(num_nodes=200, seed=2)
    print(outcome.text)
    print()

    acp, optimal, rp = (outcome.report(name) for name in ("ACP", "Optimal", "RP"))
    reduction = 100.0 * (1.0 - acp.overhead_per_min / optimal.overhead_per_min)
    print(f"ACP reaches {100 * acp.success_rate:.1f}% success vs the optimal "
          f"algorithm's {100 * optimal.success_rate:.1f}% while sending "
          f"{reduction:.0f}% fewer messages.")
    print(f"Against RP (fully distributed), ACP pays "
          f"{acp.state_messages_per_min:.0f} state msgs/min for "
          f"{100 * (acp.success_rate - rp.success_rate):.1f} extra success "
          f"points — the paper's hybrid-approach trade.")


if __name__ == "__main__":
    main()
