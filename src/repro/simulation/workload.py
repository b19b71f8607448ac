"""Workload generation (Section 4.1's request model).

Requests arrive in a Poisson process at a (possibly time-varying) rate in
requests/minute — the adaptability experiment of Fig. 8 steps the rate
40 → 80 → 60.  Each request draws a random application template, uniform
resource requirements, a uniform session duration of 5–15 minutes, and QoS
requirements at a configurable *stringency level* (Fig. 5(b) compares
"high QoS" and "very high QoS", where "Higher QoS means shorter processing
time and lower loss rate requirements").

QoS requirement derivation: the generator knows the expected per-stage
costs (component delay/loss, virtual-link delay/loss) and budgets the
end-to-end requirement as ``slack × expected critical-path cost`` with a
per-request jitter.  Slack < 1 means the requirement is tighter than the
*average* composition — only better-than-average compositions qualify,
which is what makes stringency bite.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Protocol, Tuple

from repro.model.function_graph import FunctionGraph
from repro.model.qos import QoSVector
from repro.model.request import StreamRequest, derive_bandwidth_requirements
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA, ResourceVector
from repro.model.templates import TemplateLibrary


class WorkloadSource(Protocol):
    """The duck type the simulator consumes: an arrival process plus a
    request factory.  :class:`WorkloadGenerator` and
    ``repro.simulation.population``'s
    :class:`~repro.simulation.population.PopulationWorkload` satisfy it.
    """

    def next_interarrival(self, now_s: float) -> float:
        """Seconds from ``now_s`` until the next request arrives."""
        ...

    def make_request(self, arrival_time: float) -> "StreamRequest":
        """Materialise the request arriving at ``arrival_time``."""
        ...


@dataclass(frozen=True)
class QoSLevel:
    """A QoS stringency level: slack multipliers on expected path cost."""

    name: str
    delay_slack: float
    loss_slack: float

    def __post_init__(self) -> None:
        if self.delay_slack <= 0.0 or self.loss_slack <= 0.0:
            raise ValueError(f"slacks must be positive in {self}")


#: The stringency levels used across the experiments.  "high" and
#: "very_high" correspond to Fig. 5(b)'s two curves.
QOS_LEVELS: Mapping[str, QoSLevel] = MappingProxyType({
    "loose": QoSLevel("loose", delay_slack=2.5, loss_slack=3.0),
    "normal": QoSLevel("normal", delay_slack=1.8, loss_slack=2.2),
    "high": QoSLevel("high", delay_slack=1.35, loss_slack=1.7),
    "very_high": QoSLevel("very_high", delay_slack=1.1, loss_slack=1.3),
})


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant request rate in requests/minute.

    ``segments`` are (start_time_s, rate_per_min) pairs; the first must
    start at 0.  :meth:`constant` builds the common fixed-rate case.
    """

    segments: Tuple[Tuple[float, float], ...]
    #: segment start times, cached for bisect lookups
    _starts: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if self.segments[0][0] != 0.0:
            raise ValueError("first segment must start at time 0")
        times = [start for start, _rate in self.segments]
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise ValueError(
                    f"segment starts must be strictly increasing: {times}"
                )
        for _start, rate in self.segments:
            if rate <= 0.0:
                raise ValueError(f"rates must be positive, got {rate}")
        object.__setattr__(self, "_starts", tuple(times))

    @classmethod
    def constant(cls, rate_per_min: float) -> "RateSchedule":
        return cls(((0.0, rate_per_min),))

    @classmethod
    def steps(cls, *segments: Tuple[float, float]) -> "RateSchedule":
        return cls(tuple(segments))

    def rate_at(self, time_s: float) -> float:
        """Rate in effect at ``time_s`` (O(log segments) bisect)."""
        index = bisect_right(self._starts, time_s) - 1
        if index < 0:
            index = 0
        return self.segments[index][1]

    def next_change_after(self, time_s: float) -> Optional[float]:
        """Start time of the next rate step strictly after ``time_s``, or
        ``None`` when the schedule is constant from ``time_s`` onward."""
        index = bisect_right(self._starts, time_s)
        if index >= len(self._starts):
            return None
        return self._starts[index]


@dataclass(frozen=True)
class WorkloadProfile:
    """Distributions for request attributes (Section 4.1 defaults)."""

    stream_rate: Tuple[float, float] = (50.0, 200.0)
    cpu_requirement: Tuple[float, float] = (2.0, 6.0)
    memory_requirement: Tuple[float, float] = (10.0, 40.0)
    session_duration_s: Tuple[float, float] = (300.0, 900.0)  # 5 to 15 min
    kbps_per_unit: float = 2.0
    #: expected per-stage costs used to budget QoS requirements; component
    #: figures include typical load inflation under the load-dependent QoS
    #: model (base delay mean 27.5 ms, ~45% typical utilisation)
    expected_component_delay_ms: float = 40.0
    expected_link_delay_ms: float = 30.0
    expected_component_loss: float = 0.008
    expected_link_loss: float = 0.002
    #: multiplicative jitter applied to each request's QoS budget
    qos_jitter: Tuple[float, float] = (0.85, 1.15)


class WorkloadGenerator:
    """Draws Poisson arrivals of randomised stream processing requests."""

    def __init__(
        self,
        templates: TemplateLibrary,
        schedule: RateSchedule,
        qos_level: QoSLevel = QOS_LEVELS["normal"],
        profile: WorkloadProfile = WorkloadProfile(),
        num_client_routers: int = 3200,
        seed: int = 0,
    ) -> None:
        self.templates = templates
        self.schedule = schedule
        self.qos_level = qos_level
        self.profile = profile
        self.num_client_routers = num_client_routers
        self._rng = random.Random(seed)
        self._next_request_id = 0

    # -- arrivals ------------------------------------------------------------

    def next_interarrival(self, now_s: float) -> float:
        """Inter-arrival time under the (piecewise-constant) schedule.

        Exact non-homogeneous Poisson sampling: draw an exponential gap at
        the rate in effect now; if it crosses the next ``RateSchedule``
        step, discard the portion past the boundary and redraw from the
        boundary at the new rate (valid by memorylessness).  A gap spanning
        a step therefore feels the new rate from the instant of the step —
        previously the whole gap was drawn at the old rate, so Fig. 8's
        40 → 80 step took effect one arrival late.

        On a constant schedule this makes exactly one draw, leaving the rng
        stream — and every flat-Poisson experiment — byte-identical to the
        pre-fix behaviour.
        """
        t = now_s
        elapsed = 0.0
        while True:
            rate_per_s = self.schedule.rate_at(t) / 60.0
            gap = self._rng.expovariate(rate_per_s)
            boundary = self.schedule.next_change_after(t)
            if boundary is None or t + gap <= boundary:
                # return elapsed + gap, not (t + gap) - now_s: the single-draw
                # case must return the raw draw bit-for-bit
                return elapsed + gap
            elapsed += boundary - t
            t = boundary

    # -- request construction ----------------------------------------------------

    def _critical_path_stages(self, graph: FunctionGraph) -> int:
        """Function count on the longest source-to-sink path."""
        return max(len(path) for path in graph.all_paths())

    def qos_requirement_for(self, graph: FunctionGraph) -> QoSVector:
        """Budget the end-to-end QoS requirement for a function graph."""
        profile = self.profile
        level = self.qos_level
        stages = self._critical_path_stages(graph)
        jitter = self._rng.uniform(*profile.qos_jitter)
        delay_budget = (
            level.delay_slack
            * jitter
            * (
                stages * profile.expected_component_delay_ms
                + (stages - 1) * profile.expected_link_delay_ms
            )
        )
        # loss budgets add in -log(1-p) space, then map back to a rate
        loss_log_budget = (
            level.loss_slack
            * jitter
            * (
                stages * -math.log1p(-profile.expected_component_loss)
                + (stages - 1) * -math.log1p(-profile.expected_link_loss)
            )
        )
        loss_budget = 1.0 - math.exp(-loss_log_budget)
        return QoSVector(delay_budget, loss_budget)

    def make_request(self, arrival_time: float) -> StreamRequest:
        """Draw the next request of the workload."""
        rng = self._rng
        profile = self.profile
        template = self.templates.sample(rng)
        graph = template.graph
        stream_rate = rng.uniform(*profile.stream_rate)
        node_requirements = {
            index: ResourceVector(
                DEFAULT_RESOURCE_SCHEMA,
                [
                    rng.uniform(*profile.cpu_requirement),
                    rng.uniform(*profile.memory_requirement),
                ],
            )
            for index in range(len(graph))
        }
        request = StreamRequest(
            request_id=self._next_request_id,
            function_graph=graph,
            qos_requirement=self.qos_requirement_for(graph),
            node_requirements=node_requirements,
            bandwidth_requirements=derive_bandwidth_requirements(
                graph, stream_rate, profile.kbps_per_unit
            ),
            stream_rate=stream_rate,
            arrival_time=arrival_time,
            duration=rng.uniform(*profile.session_duration_s),
            client_router_id=rng.randrange(self.num_client_routers),
        )
        self._next_request_id += 1
        return request
