"""The benchmark's workloads, defined here rather than imported.

Each workload is a literal copy of today's experiment parameters, so a
refactor of the experiment layer (scenario registry, fault-plan
defaults, spec builders) cannot silently change what the benchmark
measures.  Only public constructors are used: ``RunSpec``,
``SystemConfig``, ``RateSchedule``, ``FaultPlan`` and ``RecoveryPolicy``.

Knobs that are implementation choices rather than workload properties
(the scoring kernel, the vectorised/scalar switch, incremental routing)
are deliberately left at their defaults; the resolved scoring kernel is
recorded in each run's stamp instead.

A run of ``--seconds T`` simulates ``episodes(T)`` independent
episodes, each a fresh system built from its own sub-seed.  The episode
count is a fixed function of ``T`` (how many episodes fit in ``T``
seconds at the reference speed), never of the wall clock, so every
decision and every seed-fixed metric of a run depends only on
(workload, seed, T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.discovery.deployment import DeploymentProfile
from repro.experiments.config import RunSpec
from repro.middleware.session import RecoveryPolicy
from repro.simulation.failures import FaultPlan
from repro.simulation.system import SystemConfig
from repro.simulation.workload import QOS_LEVELS, RateSchedule

#: Sub-seed stride between the episodes of one run.  Episode 0 of seed
#: ``s`` is exactly seed ``s``; later episodes step far enough that the
#: small seeds a caller passes never share an episode.
EPISODE_SEED_STRIDE = 1_000_003

#: ``RunSpec.workload_seed`` offset from the system seed, as in the
#: experiment layer's default spec: episode seed ``s`` builds the same
#: system and request stream as the evaluation point at seed ``s``.
WORKLOAD_SEED_OFFSET = 1000

#: The evaluation's common settings (FAST scale): one or two components
#: per node, ACP with α = 0.3 and "normal" QoS, 150 s sampling windows.
COMPONENTS_PER_NODE = (1, 2)
PROBING_RATIO = 0.3
SAMPLING_PERIOD_S = 150.0

#: Wall seconds of run phase between two host-speed gauge readings at
#: the reference speed; sets each workload's slice count.
SLICE_S = 0.4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an experiment point plus its run sizing."""

    name: str
    #: why the workload exists (which layer it loads, which it bypasses)
    why: str
    num_nodes: int
    num_routers: int
    #: simulated seconds per episode
    horizon_s: float
    #: (fraction of the horizon, requests per minute) rate steps
    rate_steps: Tuple[Tuple[float, float], ...]
    #: wall seconds one episode takes at the reference speed (see
    #: ``calibration.REFERENCE_PASS_S``); sizes the episode count and the
    #: run-phase slices, never read from a clock
    reference_episode_s: float
    faults: Optional[FaultPlan] = None
    recovery: Optional[RecoveryPolicy] = None
    candidate_prune_k: Union[int, str, None] = None
    #: bound on the router, scorer-row and neighbourhood caches; None
    #: keeps SystemConfig's defaults
    cache_size: Optional[int] = None

    def episodes(self, seconds: float) -> int:
        """Episodes in a run of ``seconds``: as many reference episodes as
        fit, at least one."""
        if seconds <= 0:
            raise ValueError(f"seconds must be positive, got {seconds}")
        return max(1, int(seconds / self.reference_episode_s + 0.5))

    @property
    def run_slices(self) -> int:
        """Equal slices of simulated time an episode's run phase is split
        into, with a gauge reading after each."""
        return max(1, round(self.reference_episode_s / SLICE_S))

    def episode_seed(self, seed: int, episode: int) -> int:
        return seed + EPISODE_SEED_STRIDE * episode

    def spec(self, seed: int) -> RunSpec:
        """The run spec of one episode at system seed ``seed``."""
        caches = {}
        if self.cache_size is not None:
            caches = dict.fromkeys(
                ("router_cache_size", "scorer_row_cache_size", "neighborhood_cache_size"),
                self.cache_size,
            )
        system = SystemConfig(
            num_routers=self.num_routers,
            num_nodes=self.num_nodes,
            deployment=DeploymentProfile(components_per_node=COMPONENTS_PER_NODE),
            candidate_prune_k=self.candidate_prune_k,
            seed=seed,
            **caches,
        )
        schedule = RateSchedule.steps(
            *((fraction * self.horizon_s, rate) for fraction, rate in self.rate_steps)
        )
        return RunSpec(
            algorithm="ACP",
            system=system,
            schedule=schedule,
            qos_level=QOS_LEVELS["normal"],
            probing_ratio=PROBING_RATIO,
            duration_s=self.horizon_s,
            sampling_period_s=SAMPLING_PERIOD_S,
            workload_seed=seed + WORKLOAD_SEED_OFFSET,
            faults=self.faults,
            recovery=self.recovery,
        )


#: The fault cocktail of the fault-tolerance experiment, as it stands
#: today: per 60 s round each node crashes with 5 % and each link fails
#: with 2 % probability, down elements recover with 50 %; probes see 5 %
#: loss, 2 ms delay and 2 retries; state updates see 10 % loss.  The cap
#: on concurrent failures resolves to N/10.
FAULT_COCKTAIL = FaultPlan(
    node_fail_probability=0.05,
    node_recover_probability=0.5,
    link_fail_probability=0.02,
    link_recover_probability=0.5,
    probe_loss_probability=0.05,
    probe_delay_ms=2.0,
    max_probe_retries=2,
    state_update_loss_probability=0.10,
    period_s=60.0,
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="steady-400",
            why=(
                "paper evaluation point: full candidate scan on warm router "
                "trees under contention; loads core scoring and router rows, "
                "bypasses the neighbourhood index"
            ),
            num_nodes=400,
            num_routers=800,
            horizon_s=1200.0,
            rate_steps=((0.0, 80.0),),
            reference_episode_s=8.0,
        ),
        Workload(
            name="scale-2000",
            why=(
                "2000 nodes with auto-pruned candidates and 256-entry caches "
                "under load; loads the neighbourhood index and set-up, "
                "bypasses router rows"
            ),
            num_nodes=2000,
            num_routers=2400,
            horizon_s=60.0,
            rate_steps=((0.0, 80.0),),
            reference_episode_s=6.5,
            candidate_prune_k="auto",
            cache_size=256,
        ),
        Workload(
            name="faults-400",
            why=(
                "node and link churn with recovery beside 40/80/60 req/min "
                "arrivals; loads tree rebuilds and recovery sweeps that the "
                "fault-free workloads never run"
            ),
            num_nodes=400,
            num_routers=800,
            horizon_s=900.0,
            rate_steps=((0.0, 40.0), (1.0 / 3.0, 80.0), (2.0 / 3.0, 60.0)),
            reference_episode_s=18.0,
            faults=FAULT_COCKTAIL,
            recovery=RecoveryPolicy(),
        ),
    )
}
