"""Outside-in tracing: spans around each layer's public calls.

The wrappers are installed on the classes from here, before any system
is built, so the program under test carries no tracing code of its own.
Each wrapped call opens a span (name, start, end, parent span, trace
id).  Spans of one request share its id: a ``SessionManager.find`` and
every recovery re-compose take the request id, a churn round takes its
round number, and every other span inherits its parent's id (the event
number under ``EventScheduler.step``).

Self time is a span's duration minus the durations of its wrapped
children.  Leaf spans (no wrapped children) are folded into their
parent as (count, total) per name, which bounds memory on runs with
millions of leaf calls; every other span is kept and written out, gzip
JSON lines, when the run ends.

Blind spots of the outside-in view: the private dispatch and final
selection inside ``ProbingComposer.compose`` count as compose self time,
and a cold tree's annotation is charged to whichever public row call
touches the tree first.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, class or None, attributes) of every timed call.  A
#: ``None`` class names module-level functions, patched in ``module``
#: (the caller's namespace, so the caller's imported name is replaced).
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("topology", "repro.topology.routing", "OverlayRouter", (
        "bottleneck_bandwidth_row", "virtual_link_rows", "virtual_link",
        "available_bandwidth", "set_down_nodes", "set_down_links", "__init__",
    )),
    ("topology", "repro.topology.neighborhood", "NeighborhoodIndex", (
        "entry", "stale_bottleneck_row", "live_bandwidth", "virtual_link",
    )),
    ("topology", "repro.topology.powerlaw", "PowerLawTopologyGenerator", ("generate",)),
    ("topology", "repro.simulation.system", None, ("build_overlay_network",)),
    ("discovery", "repro.discovery.deployment", "ComponentDeployer", ("deploy",)),
    ("core", "repro.core.prober", "ProbingComposer", ("compose",)),
    ("core", "repro.core.fastscore", "FastScorer", ("score_level",)),
    ("core", "repro.core.fastscore", "LevelPool", ("select_best",)),
    ("core", "repro.core.composer", "CompositionEvaluator", (
        "qualify_and_rank", "build_component_graph",
    )),
    ("allocation", "repro.allocation.allocator", "ResourceAllocator", (
        "reserve_component", "available_excluding", "commit", "release",
        "cancel_transient", "expire_due",
    )),
    ("state", "repro.state.global_state", "GlobalStateManager", (
        "__init__", "node_available",
    )),
    ("state", "repro.state.aggregation", "AggregationManager", ("run_round",)),
    ("middleware", "repro.middleware.session", "SessionManager", (
        "find", "recover_pending", "close_or_abandon",
        "terminate_sessions_using_node", "terminate_sessions_using_link",
    )),
    ("simulation", "repro.simulation.engine", "EventScheduler", ("step",)),
    ("simulation", "repro.simulation.failures", "FailureInjector", ("run_round",)),
    ("simulation", "repro.simulation.metrics", "MetricsCollector", (
        "record", "close_window",
    )),
    ("simulation", "repro.simulation.workload", "WorkloadGenerator", ("make_request",)),
)

#: Calls that are only counted (too many and too short to time).
COUNT_TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("model", "repro.model.qos", "QoSVector", ("__init__", "combine")),
    ("model", "repro.model.resources", "ResourceVector", ("__init__", "__add__", "__sub__")),
)

RECOVER = "middleware.SessionManager.recover_pending"

#: Spans that run during set-up, not during the run phase.
SETUP_SPANS = frozenset((
    "topology.PowerLawTopologyGenerator.generate",
    "topology.build_overlay_network",
    "discovery.ComponentDeployer.deploy",
    "topology.OverlayRouter.__init__",
    "state.GlobalStateManager.__init__",
))

#: Layer counters and ratios, in output order, with unit and direction.
COUNTER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("topology.router.tree_evictions", "count", "lower"),
    ("topology.router.cached_trees", "count", "higher"),
    ("topology.neighborhood.solves", "count", "lower"),
    ("topology.neighborhood.evictions", "count", "lower"),
    ("topology.neighborhood.churn_drops", "count", "lower"),
    ("topology.neighborhood.hit_ratio", "fraction", "higher"),
    ("core.probes_sent", "count", "lower"),
    ("core.probes_lost", "count", "lower"),
    ("core.widen_retries", "count", "lower"),
    ("core.compose_yield", "fraction", "higher"),
    ("model.qos_ops_per_request", "ops/request", "lower"),
    ("model.resource_ops_per_request", "ops/request", "lower"),
    ("allocation.reservation_yield", "fraction", "higher"),
    ("allocation.expired_reservations", "count", "lower"),
    ("state.update_messages", "count", "lower"),
    ("state.updates_lost", "count", "lower"),
    ("middleware.recovery_yield", "fraction", "higher"),
    (RECOVER + ".incl_s", "s", "lower"),
    ("simulation.events", "count", "lower"),
    ("trace.overhead_ms_per_request", "ms", "lower"),
)


def span_names() -> List[str]:
    return [
        f"{layer}.{owner or ''}{'.' if owner else ''}{attribute}"
        for layer, _, owner, attributes in SPAN_TARGETS
        for attribute in attributes
    ]


def count_names() -> List[str]:
    return [
        f"{layer}.{owner}.{attribute}"
        for layer, _, owner, attributes in COUNT_TARGETS
        for attribute in attributes
    ]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    metrics = []
    for name in span_names():
        metrics.append((name + ".calls", "count", "lower"))
        metrics.append((name + ".self_s", "s", "lower"))
    metrics.extend((name + ".calls", "count", "lower") for name in count_names())
    metrics.extend(COUNTER_METRICS)
    return metrics


class Tracer:
    """In-memory span store and per-name self-time ledger.

    A frame is ``[name, start, child_s, span_id, trace_id, leaves]``;
    ``leaves`` stays None until a wrapped child closes under it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.active = False
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.root_trace: Any = "setup"
        self._next_id = 0

    def open(self, name: str, trace: Any = None) -> list:
        stack = self.stack
        if trace is None:
            trace = stack[-1][4] if stack else self.root_trace
        self._next_id += 1
        frame = [name, self.clock(), 0.0, self._next_id, trace, None]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        name, start, child_s, span_id, trace, leaves = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.incl_s[name] += duration
        parent = stack[-1] if stack else None
        if parent is None:
            self.spans.append((span_id, name, start, end, None, trace, leaves))
            return
        parent[2] += duration
        if parent[5] is None:
            parent[5] = {}
        if leaves is None:
            entry = parent[5].get(name)
            if entry is None:
                parent[5][name] = [1, duration]
            else:
                entry[0] += 1
                entry[1] += duration
        else:
            self.spans.append((span_id, name, start, end, parent[3], trace, leaves))

    def span(self, name: str, original: Callable, trace_of=None, after=None) -> Callable:
        """Wrap ``original`` in a span named ``name``.

        ``trace_of(args)`` gives the span a trace id of its own;
        ``after(args, result)`` sees each result (for layer counters).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer.open(name, trace_of(args) if trace_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, original: Callable) -> Callable:
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> int:
        """Write every kept span as gzip JSON lines; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span_id, name, start, end, parent, trace, leaves in self.spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "trace": trace,
                    "leaves": leaves or {},
                }) + "\n")
        return len(self.spans)


class LayerHooks:
    """The traced mode's episode hooks: switches the tracer on for set-up
    and the run phase, off for the drain, and reads layer counters."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.episode = 0
        self.round = 0
        self.values: Dict[str, float] = defaultdict(float)
        self.cached_trees: List[int] = []
        self.setup_s = 0.0
        self.run_s = 0.0
        self.requests = 0

    def begin_episode(self) -> None:
        self.episode += 1
        self.tracer.root_trace = f"setup{self.episode}"
        self.tracer.active = True

    def after_run(self, simulator, report, setup_s: float, run_s: float) -> None:
        self.tracer.active = False
        values = self.values
        router = simulator.system.router
        values["topology.router.tree_evictions"] += router.tree_evictions
        self.cached_trees.append(router.cached_tree_count)
        context = simulator.composer.context
        index = None
        if context.candidate_prune_k is not None:
            index = context.neighborhood_index()
        for name in ("solves", "evictions", "churn_drops"):
            values["topology.neighborhood." + name] += getattr(index, name) if index else 0
        values["core.probes_lost"] += context.control.messages_lost
        values["core.widen_retries"] += context.fast_scorer().widen_retries
        values["allocation.expired_reservations"] += (
            simulator.system.allocator.expired_reservations
        )
        values["state.update_messages"] += report.state_update_messages
        values["state.updates_lost"] += report.state_updates_lost
        values["simulation.events"] += simulator.scheduler.processed
        self.setup_s += setup_s
        self.run_s += run_s
        self.requests += report.total_requests

    def next_round(self, args) -> str:
        self.round += 1
        return f"round{self.round}"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@contextmanager
def installed(tracer: Tracer, hooks: LayerHooks) -> Iterator[None]:
    """Install every wrapper; restore the originals on exit."""
    counts = tracer.counts
    recovering = [0]

    def compose_after(args, outcome) -> None:
        counts["compose_calls"] += 1
        counts["compose_ok"] += bool(outcome.success)
        counts["probes"] += outcome.probe_messages
        if recovering[0]:
            counts["recovery_composes"] += 1

    def reserve_after(args, ok) -> None:
        counts["reservations_ok"] += bool(ok)

    def commit_after(args, allocation) -> None:
        counts["placements"] += len(args[1].request.function_graph)

    def recover_after(args, recovered) -> None:
        counts["recovered"] += recovered

    def request_trace(args) -> str:
        return f"req{args[1].request_id}"

    events = [0]

    def event_trace(args) -> str:
        events[0] += 1
        return f"event{events[0]}"

    special = {
        "core.ProbingComposer.compose": (request_trace, compose_after),
        "allocation.ResourceAllocator.reserve_component": (None, reserve_after),
        "allocation.ResourceAllocator.commit": (None, commit_after),
        "middleware.SessionManager.find": (request_trace, None),
        RECOVER: (None, recover_after),
        "simulation.EventScheduler.step": (event_trace, None),
        "simulation.FailureInjector.run_round": (hooks.next_round, None),
    }
    patched: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, wrapper: Callable) -> None:
        patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    try:
        for layer, module_name, owner_name, attributes in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            for attribute in attributes:
                name = f"{layer}.{owner_name + '.' if owner_name else ''}{attribute}"
                original = getattr(owner, attribute)
                trace_of, after = special.get(name, (None, None))
                if name == RECOVER:
                    original = _flagging(original, recovering)
                patch(owner, attribute, tracer.span(name, original, trace_of, after))
        for layer, module_name, owner_name, attributes in COUNT_TARGETS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            for attribute in attributes:
                patch(owner, attribute, tracer.counter(
                    f"{layer}.{owner_name}.{attribute}", getattr(owner, attribute)
                ))
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def _flagging(original: Callable, flag: List[int]) -> Callable:
    """Mark the dynamic extent of ``original`` in ``flag[0]``."""

    def wrapper(*args, **kwargs):
        flag[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            flag[0] -= 1

    return wrapper


def layer_metrics(
    tracer: Tracer, hooks: LayerHooks, overhead_ms: Optional[float]
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of a traced run, keyed as declared (the
    overhead is None when there was no untraced run to compare with)."""
    counts = tracer.counts
    values: Dict[str, Optional[float]] = {}
    for name in span_names():
        values[name + ".calls"] = tracer.calls.get(name, 0)
        values[name + ".self_s"] = tracer.self_s.get(name, 0.0)
    for name in count_names():
        values[name + ".calls"] = counts.get(name, 0)
    requests = hooks.requests
    entry_calls = tracer.calls.get("topology.NeighborhoodIndex.entry", 0)
    values.update(hooks.values)
    values["topology.router.cached_trees"] = (
        sum(hooks.cached_trees) / len(hooks.cached_trees) if hooks.cached_trees else 0.0
    )
    values["topology.neighborhood.hit_ratio"] = (
        1.0 - _ratio(values["topology.neighborhood.solves"], entry_calls)
        if entry_calls else 0.0
    )
    values["core.probes_sent"] = counts.get("probes", 0)
    values["core.compose_yield"] = _ratio(counts.get("compose_ok", 0), counts.get("compose_calls", 0))
    values["model.qos_ops_per_request"] = _ratio(
        sum(counts.get(f"model.QoSVector.{m}", 0) for m in ("__init__", "combine")), requests
    )
    values["model.resource_ops_per_request"] = _ratio(
        sum(counts.get(f"model.ResourceVector.{m}", 0) for m in ("__init__", "__add__", "__sub__")),
        requests,
    )
    values["allocation.reservation_yield"] = _ratio(
        counts.get("placements", 0), counts.get("reservations_ok", 0)
    )
    values["middleware.recovery_yield"] = _ratio(
        counts.get("recovered", 0), counts.get("recovery_composes", 0)
    )
    values[RECOVER + ".incl_s"] = tracer.incl_s.get(RECOVER, 0.0)
    values["trace.overhead_ms_per_request"] = overhead_ms
    return {name: values[name] for name, _, _ in per_layer_metrics()}
