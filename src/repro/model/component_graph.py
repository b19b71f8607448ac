"""Component graphs — composed stream processing applications.

Section 2.1: "We use component graph (λ) to represent a composed stream
processing application. ... The connection between two adjacent components
is called virtual link (l_i), which consists of a set of overlay links."

A :class:`ComponentGraph` is the result of composition: for every function
placement of the request's function graph, a concrete component, and for
every dependency link, the :class:`VirtualLinkPath` its stream will ride.
It is passive data plus pure aggregation logic (end-to-end QoS, the
Eqs. 4–5 demand, congestion aggregation φ(λ) of Eq. 1); all notions of
"current availability" are injected by the caller so the same graph can
be evaluated against precise probe-collected state, stale global state,
or ground truth.  The demand depends on the graph alone, so it is summed
once and kept on the (immutable) graph for every reader: the precise
check, φ and the allocator's commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.model.component import Component
from repro.model.qos import QoSVector
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector, congestion_terms


@dataclass(frozen=True)
class VirtualLinkPath:
    """A virtual link between two adjacent components.

    Attributes:
        src_node_id: Overlay node hosting the upstream component.
        dst_node_id: Overlay node hosting the downstream component.
        overlay_link_ids: The overlay links the virtual link consists of, in
            path order.  Empty iff the components are co-located, in which
            case the link "is said to have 0 network delay" (footnote 4) and
            consumes no bandwidth (footnote 8).
        qos: Aggregated QoS of the constituent overlay links.
    """

    src_node_id: int
    dst_node_id: int
    overlay_link_ids: Tuple[int, ...]
    qos: QoSVector

    @property
    def co_located(self) -> bool:
        return not self.overlay_link_ids

    def __repr__(self) -> str:
        if self.co_located:
            return f"VirtualLinkPath(v{self.src_node_id}=v{self.dst_node_id}, co-located)"
        return (
            f"VirtualLinkPath(v{self.src_node_id}->v{self.dst_node_id}, "
            f"{len(self.overlay_link_ids)} overlay links)"
        )


class ComponentGraph:
    """A fully resolved composition λ = (C, L) for a request."""

    __slots__ = ("request", "_assignment", "_links", "_demand")

    def __init__(
        self,
        request: StreamRequest,
        assignment: Mapping[int, Component],
        links: Mapping[Tuple[int, int], VirtualLinkPath],
    ) -> None:
        graph = request.function_graph
        if set(assignment) != set(range(len(graph))):
            raise ValueError(
                "assignment must cover every function placement: "
                f"got {sorted(assignment)} for {len(graph)} placements"
            )
        for index, component in assignment.items():
            expected = graph.node(index).function
            if component.function is not expected and component.function != expected:
                raise ValueError(
                    f"component {component} provides {component.function.name}, but "
                    f"placement F{index} requires {expected.name} (Eq. 2 violated)"
                )
        if set(links) != set(graph.edges):
            raise ValueError(
                f"links must cover every dependency link: got {sorted(links)}, "
                f"expected {sorted(graph.edges)}"
            )
        for (a, b), link in links.items():
            if link.src_node_id != assignment[a].node_id:
                raise ValueError(
                    f"link {a}->{b} starts at v{link.src_node_id} but F{a}'s "
                    f"component lives on v{assignment[a].node_id}"
                )
            if link.dst_node_id != assignment[b].node_id:
                raise ValueError(
                    f"link {a}->{b} ends at v{link.dst_node_id} but F{b}'s "
                    f"component lives on v{assignment[b].node_id}"
                )
        self.request = request
        self._assignment: Dict[int, Component] = dict(assignment)
        self._links: Dict[Tuple[int, int], VirtualLinkPath] = dict(links)
        self._demand: Optional[
            Tuple[Dict[int, ResourceVector], Dict[int, float]]
        ] = None

    # -- accessors ------------------------------------------------------------

    def component(self, function_index: int) -> Component:
        return self._assignment[function_index]

    @property
    def components(self) -> Tuple[Component, ...]:
        return tuple(self._assignment[i] for i in sorted(self._assignment))

    def virtual_link(self, edge: Tuple[int, int]) -> VirtualLinkPath:
        return self._links[edge]

    @property
    def virtual_links(self) -> Dict[Tuple[int, int], VirtualLinkPath]:
        return dict(self._links)

    def node_ids(self) -> Tuple[int, ...]:
        """Distinct overlay nodes used, in function-placement order."""
        seen = []
        for index in sorted(self._assignment):
            node_id = self._assignment[index].node_id
            if node_id not in seen:
                seen.append(node_id)
        return tuple(seen)

    # -- QoS aggregation (Section 2.1 / Eq. 3) ---------------------------------

    def path_qos(
        self, component_qos: Optional[Mapping[int, QoSVector]] = None
    ) -> Dict[Tuple[int, ...], QoSVector]:
        """End-to-end QoS along every source-to-sink function path.

        ``component_qos`` optionally overrides per-placement component QoS
        values — callers evaluating under the load-dependent QoS model
        (``repro.model.qos_model``) pass the effective values; the default
        is each component's deployed base QoS.
        """
        result: Dict[Tuple[int, ...], QoSVector] = {}
        for path in self.request.function_graph.all_paths():
            total = QoSVector.zero()
            for position, index in enumerate(path):
                if component_qos is not None:
                    stage_qos = component_qos[index]
                else:
                    stage_qos = self._assignment[index].qos
                total = total.combine(stage_qos)
                if position + 1 < len(path):
                    total = total.combine(self._links[(index, path[position + 1])].qos)
            result[path] = total
        return result

    def qos_satisfied(
        self, component_qos: Optional[Mapping[int, QoSVector]] = None
    ) -> bool:
        """Eq. 3: every source-to-sink path meets the QoS requirement."""
        requirement = self.request.qos_requirement
        return all(
            qos.satisfies(requirement)
            for qos in self.path_qos(component_qos).values()
        )

    def worst_path_qos(
        self, component_qos: Optional[Mapping[int, QoSVector]] = None
    ) -> QoSVector:
        """Per-metric worst accumulation over all paths (critical path)."""
        worst = [0.0, 0.0]
        for qos in self.path_qos(component_qos).values():
            worst = [max(w, v) for w, v in zip(worst, qos.values)]
        return QoSVector(*worst)

    def worst_link_delay_ms(self) -> float:
        """Max over source-to-sink paths of the summed virtual-link delay.

        The network component of the critical path: what one traversal of
        the composed graph's slowest path costs in link delay alone
        (co-located links contribute 0, footnote 4).  The simulator prices
        session setup as one probe wavefront out plus one confirmation
        back along this path.
        """
        worst = 0.0
        for path in self.request.function_graph.all_paths():
            total = 0.0
            for position in range(len(path) - 1):
                edge = (path[position], path[position + 1])
                total += self._links[edge].qos.delay
            worst = max(worst, total)
        return worst

    # -- demand (Eqs. 4-5) ------------------------------------------------------

    def demand(self) -> Tuple[Dict[int, ResourceVector], Dict[int, float]]:
        """The composition's aggregate demand ``(by node, by overlay link)``.

        Eq. 4: a node pays the requirements of every placement on it,
        summed in placement order.  Eq. 5: an overlay link pays the
        bandwidth of every virtual link that crosses it, summed in
        dependency-link order, so two virtual links sharing a link pay it
        twice; co-located virtual links cross none (footnote 8).  Summed
        on first use and shared by every reader, which must not mutate
        the dicts.
        """
        demand = self._demand
        if demand is None:
            request = self.request
            by_node: Dict[int, ResourceVector] = {}
            for index in range(len(request.function_graph)):
                node_id = self._assignment[index].node_id
                requirement = request.requirement_for(index)
                held = by_node.get(node_id)
                by_node[node_id] = requirement if held is None else held + requirement
            by_link: Dict[int, float] = {}
            for edge, link in self._links.items():
                bandwidth = request.bandwidth_for(edge)
                for link_id in link.overlay_link_ids:
                    by_link[link_id] = by_link.get(link_id, 0.0) + bandwidth
            demand = self._demand = (by_node, by_link)
        return demand

    # -- congestion aggregation φ(λ) (Eq. 1) ------------------------------------

    def congestion_aggregation(
        self,
        node_available: Callable[[int], ResourceVector],
        link_available_bw: Callable[[Tuple[int, int]], float],
    ) -> float:
        """Compute φ(λ) = Σ_ci Σ_k r_k/(rr_k + r_k)  +  Σ_li b/(rb + b).

        ``node_available`` maps a node id to its available resource vector
        *before* this request's allocations; ``link_available_bw`` maps a
        dependency link to the available bandwidth of its virtual link
        (``inf`` or any value for co-located links — they contribute 0).

        Residuals are per footnote 5: on a node hosting several of this
        request's components, the residual subtracts *all* of their
        requirements (the node's :meth:`demand`), so co-location is priced
        correctly.
        """
        request = self.request
        demand_by_node = self.demand()[0]
        total = 0.0
        for index, component in self._assignment.items():
            requirement = request.requirement_for(index)
            node_id = component.node_id
            # rr + r_k where rr = available - (all demand on the node); adding
            # back this component's own requirement prices co-location.
            effective_available = (
                node_available(node_id)
                - demand_by_node[node_id]
                + requirement
            )
            total += sum(congestion_terms(requirement, effective_available))

        for edge, link in self._links.items():
            if link.co_located:
                continue  # rb = inf for co-located components (footnote 8)
            bandwidth = request.bandwidth_for(edge)
            if bandwidth <= 0.0:
                continue
            available = link_available_bw(edge)
            if available <= 0.0:
                total += float("inf")
            else:
                total += bandwidth / available
        return total

    def __repr__(self) -> str:
        placements = ", ".join(
            f"F{i}->c{self._assignment[i].component_id}@v{self._assignment[i].node_id}"
            for i in sorted(self._assignment)
        )
        return f"ComponentGraph({placements})"
