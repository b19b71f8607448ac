"""Composable fault injection: node crashes, link flaps, control-plane loss.

Section 2.1 motivates the overlay mesh with failure resilience ("For
failure resilience, we connect distributed nodes using application-level
overlay links into an overlay mesh"); this module supplies the failures
that resilience is measured against.

A :class:`FaultPlan` describes one fault cocktail declaratively:

* **node crashes/recoveries** — the discrete-time MTBF/MTTR churn of the
  original model.  A crash terminates (or, with a recovery policy,
  disrupts) every session that placed a component on the node, makes its
  components unusable for composition, and removes it from overlay
  routing;
* **overlay link failures/flaps** — the router treats a down link like a
  down endpoint at per-link granularity
  (:meth:`~repro.topology.routing.OverlayRouter.set_down_links`), and
  sessions whose virtual links cross the failed link are disrupted;
* **probe loss/delay** — control-plane messages travel a
  :class:`~repro.core.control.LossyControlChannel`
  (see :func:`install_control_plane_faults`);
* **state-update loss** — threshold-triggered global-state reports are
  dropped (:meth:`~repro.state.global_state.GlobalStateManager.set_update_loss`),
  so snapshots go genuinely stale.

:class:`FailureInjector` executes the churn part of a plan.  Per round,
each alive node fails with ``node_fail_probability`` and each crashed node
recovers with ``node_recover_probability`` (links likewise with their own
probabilities); ``max_concurrent_failures`` caps nodes *and* links
combined.  Link randomness is only drawn when link faults are configured,
so a links-disabled plan replays the exact node-churn schedule of the
pre-link injector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.composer import CompositionContext
from repro.core.control import LossyControlChannel
from repro.middleware.session import SessionManager
from repro.observability import NULL_RECORDER, Recorder
from repro.state.global_state import GlobalStateManager
from repro.topology.overlay import OverlayNetwork
from repro.topology.routing import OverlayRouter


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of one fault cocktail.

    All probabilities are per-round (node/link churn) or per-message
    (probe and state-update loss).  The zero plan (:meth:`none`) injects
    nothing and is decision-identical to running without any fault
    machinery at all.
    """

    node_fail_probability: float = 0.0
    node_recover_probability: float = 0.5
    link_fail_probability: float = 0.0
    link_recover_probability: float = 0.5
    #: per-attempt probe loss on the control plane
    probe_loss_probability: float = 0.0
    #: control-plane latency charged per probe delivery attempt
    probe_delay_ms: float = 0.0
    #: re-send budget per probe (spent only while QoS delay slack remains)
    max_probe_retries: int = 2
    #: per-message loss of threshold-triggered global-state updates
    state_update_loss_probability: float = 0.0
    #: cap on simultaneously-down entities, nodes and links combined
    #: (None: max(1, nodes // 10), resolved by the injector)
    max_concurrent_failures: Optional[int] = None
    #: churn round period in simulated seconds
    period_s: float = 60.0

    def __post_init__(self) -> None:
        for name in (
            "node_fail_probability",
            "link_fail_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in (
            "node_recover_probability",
            "link_recover_probability",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in (
            "probe_loss_probability",
            "state_update_loss_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.probe_delay_ms < 0.0:
            raise ValueError(
                f"probe_delay_ms must be non-negative, got {self.probe_delay_ms}"
            )
        if self.max_probe_retries < 0:
            raise ValueError(
                f"max_probe_retries must be >= 0, got {self.max_probe_retries}"
            )
        if (
            self.max_concurrent_failures is not None
            and self.max_concurrent_failures < 1
        ):
            raise ValueError(
                "max_concurrent_failures must be >= 1, "
                f"got {self.max_concurrent_failures}"
            )
        if self.period_s <= 0.0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The zero plan: no faults of any kind."""
        return cls()

    @property
    def injects_churn(self) -> bool:
        """True when the plan crashes nodes or links stochastically."""
        return self.node_fail_probability > 0.0 or self.link_fail_probability > 0.0

    @property
    def injects_control_faults(self) -> bool:
        """True when the plan degrades probe or state-update delivery."""
        return (
            self.probe_loss_probability > 0.0
            or self.probe_delay_ms > 0.0
            or self.state_update_loss_probability > 0.0
        )

    @property
    def is_zero(self) -> bool:
        return not (self.injects_churn or self.injects_control_faults)


def install_control_plane_faults(
    plan: FaultPlan,
    context: CompositionContext,
    global_state: GlobalStateManager,
    seed: int,
) -> None:
    """Wire a plan's control-plane faults into a live system.

    Probe loss/delay replaces the context's control channel with a
    :class:`~repro.core.control.LossyControlChannel`; state-update loss
    arms the global-state manager.  Both draw from dedicated streams
    derived from ``seed`` — never the composition rng — so a plan with
    zero control-plane faults leaves the system untouched and
    decision-identical.
    """
    if plan.probe_loss_probability > 0.0 or plan.probe_delay_ms > 0.0:
        context.control = LossyControlChannel(
            plan.probe_loss_probability,
            delay_ms=plan.probe_delay_ms,
            rng=random.Random(seed),
            max_retries=plan.max_probe_retries,
        )
    if plan.state_update_loss_probability > 0.0:
        global_state.set_update_loss(
            plan.state_update_loss_probability, rng=random.Random(seed + 1)
        )


@dataclass(frozen=True)
class FailureEvent:
    """One crash or recovery (diagnostics / experiment series).

    Node events carry ``node_id`` with kind ``"crash"``/``"recover"``;
    link events carry ``link_id`` (``node_id`` is -1) with kind
    ``"link_down"``/``"link_up"``.  ``sessions_killed`` counts sessions
    *disrupted* by the event — killed outright in legacy mode, sent to
    recovery when a :class:`~repro.middleware.session.RecoveryPolicy` is
    active (the historical name is kept for trace compatibility).
    """

    time: float
    node_id: int
    kind: str  # "crash" | "recover" | "link_down" | "link_up"
    sessions_killed: int = 0
    link_id: Optional[int] = None


class FailureInjector:
    """Stochastic crash/recovery process over overlay nodes and links."""

    def __init__(
        self,
        network: OverlayNetwork,
        router: OverlayRouter,
        plan: FaultPlan,
        rng: Optional[random.Random] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.plan = plan
        self.network = network
        self.router = router
        self.max_concurrent_failures = (
            plan.max_concurrent_failures
            if plan.max_concurrent_failures is not None
            else max(1, len(network) // 10)
        )
        # explicit fixed seed when the caller doesn't supply a stream;
        # never the process-global RNG, so churn schedules replay exactly
        self.rng = rng if rng is not None else random.Random(0)
        self.recorder = recorder
        self._down: Set[int] = set()
        self._down_links: Set[int] = set()
        self._events: List[FailureEvent] = []
        #: sessions disrupted by crashes since construction (killed
        #: outright without a recovery policy; the historical name stays)
        self.sessions_killed = 0

    def _record(self, events: List[FailureEvent]) -> List[FailureEvent]:
        """Append to the event log and mirror into the trace recorder."""
        self._events.extend(events)
        if self.recorder.enabled:
            for event in events:
                if event.link_id is not None:
                    self.recorder.emit(
                        "failure." + event.kind,
                        time=event.time,
                        link_id=event.link_id,
                        sessions_killed=event.sessions_killed,
                    )
                else:
                    self.recorder.emit(
                        "failure." + event.kind,
                        time=event.time,
                        node_id=event.node_id,
                        sessions_killed=event.sessions_killed,
                    )
        return events

    @property
    def down_nodes(self) -> frozenset:
        return frozenset(self._down)

    @property
    def down_links(self) -> frozenset:
        return frozenset(self._down_links)

    @property
    def concurrent_failures(self) -> int:
        """Entities currently down, nodes and links combined (the figure
        the ``max_concurrent_failures`` cap bounds)."""
        return len(self._down) + len(self._down_links)

    @property
    def events(self) -> Tuple[FailureEvent, ...]:
        return tuple(self._events)

    # -- the churn effects, one entity each -------------------------------------

    def _crash_node(
        self, node_id: int, sessions: Optional[SessionManager], now: float
    ) -> FailureEvent:
        """Terminate the sessions on ``node_id``, then take it down (the
        caller updates the router once per batch)."""
        killed = 0
        if sessions is not None:
            killed = sessions.terminate_sessions_using_node(node_id)
        self.network.node(node_id).fail()
        self._down.add(node_id)
        self.sessions_killed += killed
        return FailureEvent(now, node_id, "crash", killed)

    def _recover_node(self, node_id: int, now: float) -> FailureEvent:
        self.network.node(node_id).recover()
        self._down.discard(node_id)
        return FailureEvent(now, node_id, "recover")

    def _fail_link(
        self, link_id: int, sessions: Optional[SessionManager], now: float
    ) -> FailureEvent:
        """Terminate the sessions crossing ``link_id``, then take it down
        (the caller updates the router once per batch)."""
        killed = 0
        if sessions is not None:
            killed = sessions.terminate_sessions_using_link(link_id)
        self._down_links.add(link_id)
        self.sessions_killed += killed
        return FailureEvent(now, -1, "link_down", killed, link_id=link_id)

    def _recover_link(self, link_id: int, now: float) -> FailureEvent:
        self._down_links.discard(link_id)
        return FailureEvent(now, -1, "link_up", link_id=link_id)

    # -- explicit control (tests, targeted experiments) -----------------------

    def crash(
        self, node_id: int, sessions: Optional[SessionManager] = None,
        now: float = 0.0,
    ) -> FailureEvent:
        """Crash one node immediately."""
        return self.crash_many([node_id], sessions=sessions, now=now)[0]

    def recover(self, node_id: int, now: float = 0.0) -> FailureEvent:
        """Recover one crashed node immediately."""
        return self.recover_many([node_id], now=now)[0]

    def crash_many(
        self,
        node_ids: Sequence[int],
        sessions: Optional[SessionManager] = None,
        now: float = 0.0,
    ) -> List[FailureEvent]:
        """Crash a batch of co-temporal nodes with one routing update.

        The whole batch is validated before any node is touched, and the
        router sees a single ``set_down_nodes`` call — correlated failures
        (a rack, a site) cost one incremental routing update, not one per
        node.
        """
        unique = set(node_ids)
        if len(unique) != len(node_ids):
            raise ValueError("duplicate node ids in crash batch")
        for node_id in node_ids:
            if not self.network.node(node_id).alive:
                raise ValueError(f"node v{node_id} is already down")
        events = [self._crash_node(node_id, sessions, now) for node_id in node_ids]
        if events:
            self.router.set_down_nodes(self._down)
        return self._record(events)

    def recover_many(
        self, node_ids: Sequence[int], now: float = 0.0
    ) -> List[FailureEvent]:
        """Recover a batch of crashed nodes with one routing update."""
        unique = set(node_ids)
        if len(unique) != len(node_ids):
            raise ValueError("duplicate node ids in recovery batch")
        missing = unique - self._down
        if missing:
            raise ValueError(
                f"nodes not down: {sorted(missing)}"
            )
        events = [self._recover_node(node_id, now) for node_id in node_ids]
        if events:
            self.router.set_down_nodes(self._down)
        return self._record(events)

    def fail_links(
        self,
        link_ids: Sequence[int],
        sessions: Optional[SessionManager] = None,
        now: float = 0.0,
    ) -> List[FailureEvent]:
        """Fail a batch of co-temporal overlay links with one routing update."""
        unique = set(link_ids)
        if len(unique) != len(link_ids):
            raise ValueError("duplicate link ids in failure batch")
        already = unique & self._down_links
        if already:
            raise ValueError(f"links already down: {sorted(already)}")
        for link_id in link_ids:
            if not 0 <= link_id < len(self.network.links):
                raise ValueError(f"unknown overlay link id {link_id}")
        events = [self._fail_link(link_id, sessions, now) for link_id in link_ids]
        if events:
            self.router.set_down_links(self._down_links)
        return self._record(events)

    def recover_links(
        self, link_ids: Sequence[int], now: float = 0.0
    ) -> List[FailureEvent]:
        """Recover a batch of failed overlay links with one routing update."""
        unique = set(link_ids)
        if len(unique) != len(link_ids):
            raise ValueError("duplicate link ids in recovery batch")
        missing = unique - self._down_links
        if missing:
            raise ValueError(f"links not down: {sorted(missing)}")
        events = [self._recover_link(link_id, now) for link_id in link_ids]
        if events:
            self.router.set_down_links(self._down_links)
        return self._record(events)

    # -- the stochastic round ----------------------------------------------------

    def run_round(
        self, sessions: Optional[SessionManager] = None, now: float = 0.0
    ) -> List[FailureEvent]:
        """One period of the crash/recovery process.

        Node recoveries draw first, then node crashes, then (only when the
        plan configures link faults) link recoveries and link failures —
        the link phases consume no randomness otherwise, so a node-only
        plan replays the historical churn schedule byte-for-byte.  The
        concurrency cap bounds nodes and links combined.
        """
        plan = self.plan
        events: List[FailureEvent] = []
        # recoveries first (a node cannot crash and recover the same round)
        for node_id in sorted(self._down):
            if self.rng.random() < plan.node_recover_probability:
                events.append(self._recover_node(node_id, now))
        for node in self.network.nodes:
            if not node.alive or node.node_id in self._down:
                continue
            if self.concurrent_failures >= self.max_concurrent_failures:
                break
            if self.rng.random() < plan.node_fail_probability:
                events.append(self._crash_node(node.node_id, sessions, now))
        if events:
            self.router.set_down_nodes(self._down)

        # link phases draw no randomness unless link faults are in play,
        # so a node-only plan replays the historical churn schedule exactly
        if plan.link_fail_probability > 0.0 or self._down_links:
            link_changed = False
            for link_id in sorted(self._down_links):
                if self.rng.random() < plan.link_recover_probability:
                    events.append(self._recover_link(link_id, now))
                    link_changed = True
            if plan.link_fail_probability > 0.0:
                for link in self.network.links:
                    if link.link_id in self._down_links:
                        continue
                    if self.concurrent_failures >= self.max_concurrent_failures:
                        break
                    if self.rng.random() < plan.link_fail_probability:
                        events.append(self._fail_link(link.link_id, sessions, now))
                        link_changed = True
            if link_changed:
                self.router.set_down_links(self._down_links)

        return self._record(events)
