"""Stream processing requests.

Section 2.2: a request is "(1) function requirements described by a function
graph (ξ), (2) QoS requirements (Q^req), and (3) resource requirements
(R^req)".

:class:`StreamRequest` bundles those three together with the workload
attributes the simulator needs (arrival time, session duration, source
stream rate) and the client's attachment router.  Resource requirements
are per function placement — the resources the selected component will
consume on its host — and per dependency link — the bandwidth the stream
consumes on the virtual link, which defaults to being derived from the
stream rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.model.function_graph import FunctionGraph
from repro.model.qos import QoSVector
from repro.model.resources import ResourceVector

#: Default bandwidth consumed per data unit per second (kbps per unit/s).
DEFAULT_KBPS_PER_UNIT = 1.0


@dataclass(frozen=True)
class StreamRequest:
    """A user request to compose and run a stream processing application.

    Attributes:
        request_id: Unique id assigned by the workload generator.
        function_graph: Required processing structure (ξ).
        qos_requirement: Upper bounds on end-to-end QoS (Q^req); every
            source-to-sink path of the composed application must satisfy it.
        node_requirements: Per function placement, the end-system resources
            (R^ci) the selected component will consume.
        bandwidth_requirements: Per dependency link, the bandwidth (b^li, in
            kbps) the stream consumes on the virtual link.
        stream_rate: Source stream rate in data units per second.
        arrival_time: Simulated arrival time in seconds.
        duration: Session length in seconds (paper: 5 to 15 minutes).
        client_router_id: IP router the requesting client attaches to.  No
            code reads it: which node acts as the deputy (Section 3.3) is
            not modelled.  The workload still draws it for every request
            (and a population's regional events rewrite it), because
            removing the draw would shift every later draw of the workload
            stream and change every committed result.
        required_attributes: Capability tags every selected component must
            advertise (e.g. a security level or licence class) — the
            application-specific constraints of the paper's future-work
            list, implemented as a hard per-component filter.
    """

    request_id: int
    function_graph: FunctionGraph
    qos_requirement: QoSVector
    node_requirements: Mapping[int, ResourceVector]
    bandwidth_requirements: Mapping[Tuple[int, int], float]
    stream_rate: float
    arrival_time: float = 0.0
    duration: float = 600.0
    client_router_id: Optional[int] = None
    required_attributes: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        indices = set(range(len(self.function_graph)))
        if set(self.node_requirements) != indices:
            raise ValueError(
                "node_requirements must cover every function placement: "
                f"expected {sorted(indices)}, got {sorted(self.node_requirements)}"
            )
        edges = set(self.function_graph.edges)
        if set(self.bandwidth_requirements) != edges:
            raise ValueError(
                "bandwidth_requirements must cover every dependency link: "
                f"expected {sorted(edges)}, got {sorted(self.bandwidth_requirements)}"
            )
        for edge, bandwidth in self.bandwidth_requirements.items():
            if bandwidth < 0.0:
                raise ValueError(f"negative bandwidth requirement on {edge}")
        if self.stream_rate <= 0.0:
            raise ValueError(f"stream_rate must be positive, got {self.stream_rate}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def end_time(self) -> float:
        return self.arrival_time + self.duration

    def requirement_for(self, function_index: int) -> ResourceVector:
        return self.node_requirements[function_index]

    def bandwidth_for(self, edge: Tuple[int, int]) -> float:
        return self.bandwidth_requirements[edge]

    def __repr__(self) -> str:
        return (
            f"StreamRequest(#{self.request_id}, {self.function_graph!r}, "
            f"rate={self.stream_rate:g}/s)"
        )


def derive_bandwidth_requirements(
    graph: FunctionGraph,
    stream_rate: float,
    kbps_per_unit: float = DEFAULT_KBPS_PER_UNIT,
) -> Dict[Tuple[int, int], float]:
    """Bandwidth requirement of every dependency link from the stream rate.

    The rate carried by a link is the emitting function's output rate (see
    :meth:`FunctionGraph.edge_rates`); bandwidth scales linearly with it.
    """
    return {
        edge: rate * kbps_per_unit
        for edge, rate in graph.edge_rates(stream_rate).items()
    }
