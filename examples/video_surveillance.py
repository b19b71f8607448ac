#!/usr/bin/env python3
"""Video surveillance: the paper's Fig. 1(c) application, hand-built.

The paper motivates composition with a multimedia surveillance pipeline: a
split stage fans a camera stream out to a voice-recognition branch and a
face-recognition branch whose verdicts merge in a correlation stage.  This
example builds exactly that two-branch DAG from catalog functions, submits
a batch of surveillance sessions through ACP, and shows

* how DAG probing merges branch assignments into one component graph,
* how co-location shows up (zero-delay virtual links), and
* how the system's load balancing spreads concurrent sessions over nodes.

Run:  python examples/video_surveillance.py
"""

import collections
import random

from repro.core import ACPComposer
from repro.middleware import SessionManager
from repro.model import (
    FunctionGraph,
    QoSVector,
    ResourceVector,
    StreamRequest,
    derive_bandwidth_requirements,
)
from repro.model.resources import DEFAULT_RESOURCE_SCHEMA
from repro.simulation import SystemConfig, build_system


def build_surveillance_graph(catalog) -> FunctionGraph:
    """source split -> (voice branch | face branch) -> correlation join.

    Catalog categories stand in for the paper's named stages: the analysis
    functions play the recognisers, a transformation stage decodes, and a
    correlation stage joins the verdicts.
    """
    split = catalog.by_name("transformation-00")  # media demux
    voice_decode = catalog.by_name("compression-00")  # audio decode
    voice_recognise = catalog.by_name("analysis-00")  # voice recognition
    face_decode = catalog.by_name("compression-01")  # video decode
    face_recognise = catalog.by_name("analysis-01")  # face recognition
    join = catalog.by_name("correlation-00")  # verdict correlation
    return FunctionGraph.two_branch(
        split,
        [voice_decode, voice_recognise],
        [face_decode, face_recognise],
        join,
    )


def surveillance_request(request_id: int, graph: FunctionGraph) -> StreamRequest:
    stream_rate = 120.0  # frames+samples per second
    return StreamRequest(
        request_id=request_id,
        function_graph=graph,
        qos_requirement=QoSVector(450.0, 0.12),
        node_requirements={
            i: ResourceVector(DEFAULT_RESOURCE_SCHEMA, [5.0, 30.0])
            for i in range(len(graph))
        },
        bandwidth_requirements=derive_bandwidth_requirements(
            graph, stream_rate, kbps_per_unit=4.0  # video-grade streams
        ),
        stream_rate=stream_rate,
        duration=900.0,
    )


def main() -> None:
    system = build_system(SystemConfig(num_routers=400, num_nodes=80, seed=11))
    graph = build_surveillance_graph(system.catalog)
    print("surveillance pipeline:")
    for node in graph.nodes:
        role = {0: "split", len(graph) - 1: "correlate"}.get(node.index, "branch")
        print(f"  F{node.index} ({role}): {node.function.name}")
    print(f"  edges: {graph.edges}")
    print(f"  branch paths: {[list(p) for p in graph.all_paths()]}")

    context = system.composition_context(rng=random.Random(5))
    composer = ACPComposer(context, probing_ratio=0.5)
    sessions = SessionManager(composer, system.allocator)

    # admit a batch of concurrent camera feeds
    placements = collections.Counter()
    admitted = 0
    cameras = 25
    for camera in range(cameras):
        request = surveillance_request(camera, graph)
        session_id, outcome = sessions.find(request)
        if session_id is None:
            continue
        admitted += 1
        for index in range(len(graph)):
            placements[outcome.composition.component(index).node_id] += 1
        if camera == 0:
            print(f"\nfirst camera composed (phi = {outcome.phi:.3f}):")
            for index in range(len(graph)):
                component = outcome.composition.component(index)
                print(f"  F{index} -> c{component.component_id}@v{component.node_id}")
            co_located = [
                edge
                for edge, link in outcome.composition.virtual_links.items()
                if link.co_located
            ]
            print(f"  co-located stage pairs: {co_located or 'none'}")

    print(f"\nadmitted {admitted}/{cameras} camera feeds")
    print(f"distinct nodes carrying surveillance load: {len(placements)}")
    busiest = placements.most_common(3)
    print(f"busiest nodes (components hosted): {busiest}")
    spread = len(placements) / (admitted * len(graph) / len(system.network))
    print(f"load spread factor vs single-node packing: {spread:.1f}x")

    # push one second of media through every admitted session
    total_out = 0.0
    for session_id in range(1, admitted + 1):
        result = sessions.process(session_id, units_in=120.0)
        total_out += result.units_out
    print(f"\nprocessed one second of media on every feed: "
          f"{total_out:.0f} correlated verdicts emitted")


if __name__ == "__main__":
    main()
