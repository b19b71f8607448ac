#!/usr/bin/env python3
"""Quickstart: compose and run one stream processing application with ACP.

Builds a small distributed stream processing system (power-law IP topology,
overlay mesh, deployed components), submits one request through the paper's
session middleware (Find / Process / Close), and prints what happened at
every step:

* the function graph the request asks for,
* the component graph ACP composed for it (which components, which nodes,
  which overlay links),
* its congestion aggregation φ(λ) and end-to-end QoS,
* a Process() call pushing data units through the composed pipeline.

Run:  python examples/quickstart.py
"""

import random

from repro.core import ACPComposer
from repro.middleware import SessionManager
from repro.model import derive_bandwidth_requirements, QoSVector, ResourceVector
from repro.model.request import StreamRequest
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA
from repro.simulation import SystemConfig, build_system


def main() -> None:
    # -- 1. build the distributed stream processing system -------------------
    config = SystemConfig(
        num_routers=400,  # IP-layer power-law graph (paper: 3200)
        num_nodes=60,  # stream processing overlay nodes
        seed=7,
    )
    system = build_system(config)
    print(f"system: {len(system.network)} overlay nodes, "
          f"{len(system.network.links)} overlay links, "
          f"{len(system.registry)} deployed components, "
          f"{len(system.catalog)} functions")
    print(f"mean candidates per function k = "
          f"{system.mean_candidates_per_function():.1f}")

    # -- 2. pick an application template and phrase a request ----------------
    template = system.templates[0]
    graph = template.graph
    print(f"\nrequest template: {template.name}")
    for node in graph.nodes:
        print(f"  F{node.index}: {node.function.name} "
              f"(selectivity {node.function.selectivity:g})")
    print(f"  dependency links: {graph.edges}")

    stream_rate = 100.0  # data units per second
    request = StreamRequest(
        request_id=0,
        function_graph=graph,
        qos_requirement=QoSVector(400.0, 0.15),
        node_requirements={
            i: ResourceVector(DEFAULT_RESOURCE_SCHEMA, [4.0, 25.0])
            for i in range(len(graph))
        },
        bandwidth_requirements=derive_bandwidth_requirements(
            graph, stream_rate, kbps_per_unit=2.0
        ),
        stream_rate=stream_rate,
        duration=600.0,
    )

    # -- 3. Find(): compose with ACP ------------------------------------------
    context = system.composition_context(rng=random.Random(1))
    composer = ACPComposer(context, probing_ratio=0.5)
    sessions = SessionManager(composer, system.allocator)

    session_id, outcome = sessions.find(request)
    if session_id is None:
        print(f"\ncomposition failed: {outcome.failure_reason}")
        return

    print(f"\ncomposition succeeded with {outcome.probe_messages} probe "
          f"messages ({outcome.explored} candidates examined)")
    composition = outcome.composition
    for index in sorted(range(len(graph))):
        component = composition.component(index)
        print(f"  F{index} -> c{component.component_id} on node "
              f"v{component.node_id} (delay {component.qos.delay:.1f} ms)")
    for edge, link in sorted(composition.virtual_links.items()):
        if link.co_located:
            print(f"  link {edge}: co-located (0 ms)")
        else:
            print(f"  link {edge}: {len(link.overlay_link_ids)} overlay hops, "
                  f"{link.qos.delay:.1f} ms")
    print(f"  congestion aggregation phi = {outcome.phi:.3f}")
    evaluator = composer.evaluator
    worst = evaluator.worst_effective_qos(composition, evaluator.reads(request))
    print(f"  end-to-end QoS: {worst.delay:.1f} ms delay, "
          f"{100 * worst.loss_rate:.2f}% loss "
          f"(budget {request.qos_requirement.delay:.0f} ms / "
          f"{100 * request.qos_requirement.loss_rate:.1f}%)")

    # -- 4. Process(): push data through the composed application -------------
    result = sessions.process(session_id, units_in=10_000.0)
    print(f"\nProcess(): {result.units_in:.0f} units in -> "
          f"{result.units_out:.0f} units out "
          f"(expected delay {result.expected_delay_ms:.1f} ms, "
          f"loss {100 * result.expected_loss_rate:.2f}%)")

    # -- 5. Close(): tear the session down -------------------------------------
    sessions.close(session_id)
    print(f"Close(): session {session_id} released; "
          f"active sessions = {sessions.active_session_count}")


if __name__ == "__main__":
    main()
