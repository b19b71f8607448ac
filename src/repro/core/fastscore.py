"""Vectorised candidate scoring for the probing hot path.

Every simulated request runs the probing wavefront of
:class:`~repro.core.prober.ProbingComposer`, and within it the dominant
cost is scoring ``beam × candidates`` expansions per function level:
compatibility filtering, Eq. 6–8 qualification against the coarse-grain
global state, and the Eq. 9/10 risk/congestion ranking.

:class:`FastScorer` is the one scoring path: NumPy array operations over
the whole candidate pool of a function, fed by caches that persist
*across* requests and invalidate on the substrate's epochs:

* **candidate tables** (per function) — candidate QoS, ``max_input_rate``,
  node ids, format/attribute bitmasks, node capacity matrix; keyed on
  :attr:`ComponentRegistry.version` (bumped by deploy/migration);
* **stale effective QoS** (per table) — the load-dependent component QoS
  evaluated at the global state's stale node availability, plus the stale
  node-available resource matrix, gathered in one step from
  :attr:`GlobalStateManager.node_available_array`; keyed on the per-node
  :attr:`GlobalStateManager.node_stamps`, so a table is rebuilt only when
  one of its own candidates' hosts republished its state, not on every
  bump of the global :attr:`~GlobalStateManager.node_version`;
* **virtual-link QoS** (per upstream node) — delay and composed loss at
  the pool's nodes, read from one
  :class:`~repro.topology.routing.ShortestPathTree` per upstream node:
  the router's full tree (which churn empties), or on a pruned level
  the neighbourhood index's bounded tree, where a pool node outside the
  neighbourhood reads as unreachable.  Loss is folded only down the
  paths read and memoised on the tree;
* **stale virtual-link bottleneck bandwidth** (per upstream node and
  tree size) — a memo row over the tree's positions, min-folded by the
  tree over :attr:`GlobalStateManager.link_available_array` only down
  the paths to the nodes read.  The scorer's LRU is its one home, for
  both kinds of tree, and re-starts it empty whenever
  ``(link_version, router.epoch)`` moves, so a link-state update or a
  churn event costs only the paths read after it.

Nothing here is per-request state, so nothing outlives (or leaks from)
one ``compose()``.

A level gathers each upstream node's delay, loss and stale-bandwidth
rows once and shares them among its probes.  A pruned level stays
O(P × k): its neighbourhood union is a node mask set and reset at the
members only, and loss and stale bandwidth are folded only for members
hosting a candidate.

Every array expression mirrors the scalar equations' operation order
(raw-space QoS accumulation, additive-space risk ratios, term-ordered
congestion sums).  The reference is the per-candidate scalar scorer in
``tests/oracles/scalar_scorer.py``: ``tests/test_fastscore.py`` re-scores
every level the wavefront scores with it and demands the same pool, the
same floats and the same selections.  The one knowingly tolerated
divergence is ``np.log1p`` vs ``math.log1p`` in the risk transform, which
can differ in the last ulp; it can only matter when a risk ratio lands
exactly on a tie-bucket boundary.

The scorer is specialised to the stock
:class:`~repro.model.qos_model.LoadDependentQoSModel`;
:meth:`FastScorer.begin_request` rejects any other QoS model with a
``ValueError``.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import scoring_kernel
from repro.core.selection import (
    RISK_TIE_EPSILON,
    RankingPolicy,
    ScoredCandidate,
)
from repro.model.lru import LRUDict
from repro.observability.hotpath import hot_path
from repro.model.component import Component
from repro.model.qos import QoSVector
from repro.model.qos_model import LoadDependentQoSModel
from repro.model.request import StreamRequest
from repro.model.resources import ResourceVector

if TYPE_CHECKING:  # runtime import would cycle: composer lazily imports us
    from repro.core.composer import CompositionContext
    from repro.topology.routing import ShortestPathTree

#: Loss values are clamped just below 1 before the additive transform,
#: matching ``QoSVector.additive_values``.
_MAX_LOSS = 1.0 - 1e-12


class _CandidateTable:
    """Array view of one function's candidate pool (registry-version keyed)."""

    __slots__ = (
        "components",
        "component_ids",
        "node_ids",
        "max_input_rate",
        "base_delay",
        "base_loss",
        "input_format_bits",
        "format_bit",
        "attribute_bits",
        "attribute_bit",
        "format_masks",
        "capacity",
        "registry_version",
        "stale_version",
        "stale_available",
        "stale_delay",
        "stale_loss",
    )

    def __init__(self, components: Sequence[Component], registry_version: int) -> None:
        self.components: Tuple[Component, ...] = tuple(components)
        self.registry_version = registry_version
        k = len(self.components)
        self.component_ids = np.fromiter(
            (c.component_id for c in self.components), dtype=np.int64, count=k
        )
        self.node_ids = np.fromiter(
            (c.node_id for c in self.components), dtype=np.int64, count=k
        )
        self.max_input_rate = np.fromiter(
            (c.max_input_rate for c in self.components), dtype=np.float64, count=k
        )
        self.base_delay = np.fromiter(
            (c.qos.values[0] for c in self.components), dtype=np.float64, count=k
        )
        self.base_loss = np.fromiter(
            (c.qos.values[1] for c in self.components), dtype=np.float64, count=k
        )

        # format vocabulary over this pool's input formats: a candidate
        # accepts an upstream iff the upstream's output-format bit is set
        self.format_bit: Dict[str, int] = {}
        input_bits = []
        for component in self.components:
            bits = 0
            for fmt in component.input_formats:
                bit = self.format_bit.setdefault(fmt, len(self.format_bit))
                bits |= 1 << bit
            input_bits.append(bits)
        self.input_format_bits = np.asarray(input_bits, dtype=np.int64)
        #: memo of :meth:`format_mask` per upstream output format
        self.format_masks: Dict[str, Optional[np.ndarray]] = {}

        # capability-tag vocabulary: a candidate satisfies a demand iff it
        # advertises every demanded tag (tags unknown to the whole pool
        # disqualify every candidate)
        self.attribute_bit: Dict[str, int] = {}
        attr_bits = []
        for component in self.components:
            bits = 0
            for tag in component.attributes:
                bit = self.attribute_bit.setdefault(tag, len(self.attribute_bit))
                bits |= 1 << bit
            attr_bits.append(bits)
        self.attribute_bits = np.asarray(attr_bits, dtype=np.int64)

        self.capacity: Optional[np.ndarray] = None  # filled by ensure_stale
        self.stale_version = -1
        self.stale_available: Optional[np.ndarray] = None
        self.stale_delay: Optional[np.ndarray] = None
        self.stale_loss: Optional[np.ndarray] = None

    def required_attribute_mask(
        self, required: FrozenSet[str]
    ) -> Optional[np.ndarray]:
        """Boolean qualification mask for demanded tags (None = all pass)."""
        if not required:
            return None
        bits = 0
        # repro-lint: disable=DET103 -- bitwise-OR fold; iteration order is unobservable
        for tag in required:
            bit = self.attribute_bit.get(tag)
            if bit is None:
                return np.zeros(len(self.components), dtype=bool)
            bits |= 1 << bit
        return (self.attribute_bits & bits) == bits

    def format_mask(self, output_format: str) -> Optional[np.ndarray]:
        """Which candidates accept ``output_format`` (None = none do);
        memoised per format, read-only to callers."""
        if output_format in self.format_masks:
            return self.format_masks[output_format]
        bit = self.format_bit.get(output_format)
        mask = None if bit is None else (self.input_format_bits & (1 << bit)) != 0
        self.format_masks[output_format] = mask
        return mask

    def ensure_stale(self, context: "CompositionContext") -> None:
        """Refresh the coarse-grain availability matrix and the stale
        effective QoS arrays when the global state has republished one of
        this table's nodes since they were built."""
        global_state = context.global_state
        version = global_state.node_version
        recorder = context.recorder
        if version == self.stale_version or (
            self.stale_available is not None
            and not (global_state.node_stamps[self.node_ids] > self.stale_version).any()
        ):
            self.stale_version = version
            if recorder.enabled:
                recorder.inc("fastscore.stale_hit")
            return
        if recorder.enabled:
            recorder.inc("fastscore.stale_refresh")
        network = context.network
        if self.capacity is None:
            self.capacity = np.asarray(
                [network.node(int(n)).capacity.values for n in self.node_ids],
                dtype=np.float64,
            )
        available = global_state.node_available_array[self.node_ids]
        # worst-dimension allocated fraction, clamped — the array form of
        # LoadDependentQoSModel.utilization, one entry per candidate
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(
                self.capacity > 0.0, 1.0 - available / self.capacity, 0.0
            )
        utilization = np.clip(fractions.max(axis=1, initial=0.0), 0.0, 1.0)
        delay, loss = context.qos_model.effective_qos_arrays(
            self.base_delay, self.base_loss, utilization
        )
        self.stale_available = available
        self.stale_delay = delay
        self.stale_loss = loss
        self.stale_version = version


class LevelPool:
    """The qualified (probe, candidate) expansions of one function level.

    Entries are parallel arrays in the scalar oracle's pool order
    (probe-major, candidate registration order within a probe);
    :class:`~repro.core.selection.ScoredCandidate` objects are materialised
    only for the entries a selection actually picks.
    """

    def __init__(
        self,
        table: _CandidateTable,
        probes: Sequence[object],
        predecessors: Tuple[int, ...],
        probe_index: np.ndarray,
        candidate_index: np.ndarray,
        risk: np.ndarray,
        congestion: np.ndarray,
        accumulated_delay: np.ndarray,
        accumulated_loss: np.ndarray,
        pre_delay: Optional[np.ndarray],
        pre_loss: Optional[np.ndarray],
    ) -> None:
        self._table = table
        self._probes = probes
        self._predecessors = predecessors
        self._probe_index = probe_index
        self._candidate_index = candidate_index
        self._risk = risk
        self._congestion = congestion
        self._accumulated_delay = accumulated_delay
        self._accumulated_loss = accumulated_loss
        #: worst-path QoS up to (excluding) the candidate; None at sources
        self._pre_delay = pre_delay
        self._pre_loss = pre_loss

    @property
    def size(self) -> int:
        return len(self._probe_index)

    def select_best(
        self,
        limit: int,
        ranking: RankingPolicy = RankingPolicy.RISK_THEN_CONGESTION,
        risk_tie_epsilon: float = RISK_TIE_EPSILON,
    ) -> List[ScoredCandidate]:
        """Top-``limit`` entries by Section 3.5's ranking: sort keys
        (risk bucketed by ``risk_tie_epsilon``, then congestion, then
        component id), stable tie-breaking and tie-bucket rounding equal to
        the scalar oracle's ``select_best`` in
        ``tests/oracles/scalar_scorer.py``."""
        if limit <= 0:
            return []
        risk = self._risk.tolist()
        congestion = self._congestion.tolist()
        component_ids = self._table.component_ids[self._candidate_index].tolist()

        if ranking is RankingPolicy.RISK_ONLY:
            keys = list(zip(risk, component_ids))
        elif ranking is RankingPolicy.CONGESTION_ONLY:
            keys = list(zip(congestion, component_ids))
        else:
            if risk_tie_epsilon > 0:
                buckets = [round(r / risk_tie_epsilon) for r in risk]
            else:
                buckets = risk
            keys = list(zip(buckets, congestion, component_ids))
        order = sorted(range(self.size), key=keys.__getitem__)[:limit]
        return self.take(order)

    def take(self, indices: Sequence[int]) -> List[ScoredCandidate]:
        """Materialise ``ScoredCandidate`` entries for pool positions, in
        the given order (the random hop policy samples positions)."""
        entries = []
        for index in indices:
            probe = self._probes[int(self._probe_index[index])]
            candidate = self._table.components[int(self._candidate_index[index])]
            if self._pre_delay is None:
                pre_qos = None
            else:
                pre_qos = QoSVector(
                    float(self._pre_delay[index]), float(self._pre_loss[index])
                )
            entries.append(
                ScoredCandidate(
                    candidate=candidate,
                    risk=float(self._risk[index]),
                    congestion=float(self._congestion[index]),
                    accumulated_qos=QoSVector(
                        float(self._accumulated_delay[index]),
                        float(self._accumulated_loss[index]),
                    ),
                    parent=probe,
                    pre_qos=pre_qos,
                )
            )
        return entries


class FastScorer:
    """Cross-request vectorised scoring engine bound to one context."""

    def __init__(self, context: "CompositionContext") -> None:
        self.context = context
        self._tables: Dict[int, _CandidateTable] = {}
        #: (upstream node, neighbourhood size or None for the router's full
        #: tree) -> ((link_version, router epoch), memo row of stale
        #: bottleneck kbps over the tree's positions: NaN until folded,
        #: -inf where the tree does not reach).  Mask-independent: masked
        #: candidates are already excluded from ``qualified``, so their
        #: values are never read.  LRU-bounded (scorer memory stays
        #: O(bound × N)); an evicted row is simply re-folded on next use,
        #: value-identically.
        self._bandwidth_rows: LRUDict[
            Tuple[int, Optional[int]], Tuple[Tuple[int, int], np.ndarray]
        ] = LRUDict(
            capacity=context.scorer_row_cache_size,
            on_evict=self._on_bandwidth_row_evicted,
        )
        self._alive: Optional[np.ndarray] = None
        #: shared all-True mask reused whenever no node is down; never mutated
        self._all_alive: Optional[np.ndarray] = None
        #: per node, whether it lies in one of the level's upstream
        #: neighbourhoods; all False between pruned levels, which set and
        #: reset it at their entries' members only
        self._in_neighborhood = np.zeros(len(context.network), dtype=bool)
        #: pruned levels that yielded zero qualified expansions and were
        #: deterministically re-scored with a wider neighbourhood (plain
        #: counter so benchmarks need no recorder)
        self.widen_retries = 0

    def _on_bandwidth_row_evicted(
        self,
        key: Tuple[int, Optional[int]],
        entry: Tuple[Tuple[int, int], np.ndarray],
    ) -> None:
        recorder = self.context.recorder
        if recorder.enabled:
            recorder.inc("fastscore.bw_row_evictions")

    def memory_footprint(self) -> Dict[str, int]:
        """Approximate resident bytes per scorer substructure.

        ``nbytes`` over the candidate tables' arrays (their memoised
        format masks included), the bottleneck-bandwidth memo rows and
        the neighbourhood membership mask; BENCH_scale uses this to
        attribute memory per subsystem.
        """
        tables = 0
        for table in self._tables.values():
            for slot in (
                table.component_ids,
                table.node_ids,
                table.max_input_rate,
                table.base_delay,
                table.base_loss,
                table.input_format_bits,
                table.attribute_bits,
                table.capacity,
                table.stale_available,
                table.stale_delay,
                table.stale_loss,
            ):
                if slot is not None:
                    tables += int(slot.nbytes)
            for mask in table.format_masks.values():
                if mask is not None:
                    tables += int(mask.nbytes)
        bandwidth_rows = sys.getsizeof(self._bandwidth_rows)
        for _, (_, row) in self._bandwidth_rows.items():
            bandwidth_rows += int(row.nbytes)
        footprint = {
            "tables": tables,
            "bandwidth_rows": int(bandwidth_rows),
            "neighborhood_mask": int(self._in_neighborhood.nbytes),
        }
        footprint["total"] = sum(footprint.values())
        return footprint

    def begin_request(self, request: StreamRequest) -> None:
        """Per-compose refresh: node liveness can change without bumping any
        epoch (``Node.fail()``), so take one snapshot per wavefront — which
        is exact, since liveness only changes between requests.  The network
        maintains the (usually empty) down-node set via liveness listeners,
        so the all-alive case reuses one cached mask instead of polling
        every node.

        Raises:
            ValueError: if the context's QoS model is not exactly
                :class:`LoadDependentQoSModel` (whose
                ``effective_qos_arrays`` mirrors ``effective_qos``).
        """
        model_type = type(self.context.qos_model)
        if model_type is not LoadDependentQoSModel:
            raise ValueError(
                f"FastScorer scores only with LoadDependentQoSModel itself; "
                f"the context's qos_model is {model_type.__name__}"
            )
        network = self.context.network
        down = network.down_node_ids
        if not down:
            cached = self._all_alive
            if cached is None or cached.shape[0] != len(network):
                cached = np.ones(len(network), dtype=bool)
                self._all_alive = cached
            self._alive = cached
        else:
            alive = np.ones(len(network), dtype=bool)
            alive[list(down)] = False
            self._alive = alive

    # -- caches ---------------------------------------------------------------

    def _table_for(
        self, function_id: int, candidates: Sequence[Component]
    ) -> _CandidateTable:
        version = self.context.registry.version
        recorder = self.context.recorder
        table = self._tables.get(function_id)
        if table is None or table.registry_version != version:
            table = _CandidateTable(candidates, version)
            self._tables[function_id] = table
            if recorder.enabled:
                recorder.inc("fastscore.table_build")
                recorder.emit(
                    "fastscore.table_rebuild",
                    function_id=function_id,
                    candidates=len(table.components),
                    registry_version=version,
                )
        elif recorder.enabled:
            recorder.inc("fastscore.table_hit")
        return table

    # -- scoring ---------------------------------------------------------------

    @hot_path(budget="O(P × k)")
    def score_level(
        self,
        request: StreamRequest,
        probes: Sequence[object],
        function_id: int,
        candidates: Sequence[Component],
        function_index: int,
        predecessors: Tuple[int, ...],
        requirement: ResourceVector,
        input_rate: float,
        use_global_state: bool,
    ) -> LevelPool:
        """Score every (probe, candidate) expansion of one function level.

        Implements the per-candidate pipeline of the scalar oracle
        (``tests/oracles/scalar_scorer.py``) — compatibility filters,
        Eq. 6–8 qualification, Eq. 9/10 scores — as a single batch of
        ``(probes × candidates)`` array operations.  Every arithmetic step
        is elementwise, so batching probes together changes no float
        operation or ordering, and row-major ``np.nonzero`` at the end
        gives the oracle's pool order (probe-major, candidate registration
        order within a probe).

        With ``candidate_prune_k`` set, levels with predecessors score
        only the candidates whose host node lies in some upstream node's
        delay neighbourhood (the wavefront's locality); a level whose
        pruned pool qualifies nothing is deterministically re-scored with
        a 4x wider neighbourhood until it either qualifies someone or the
        neighbourhood covers the whole overlay — at which point an empty
        pool is a genuine failure, identical to the full scan's.
        """
        context = self.context
        prune_k = context.candidate_prune_k
        if prune_k is None or not predecessors:
            # source levels have no upstream locality to prune around and
            # do no per-source routing row work anyway
            return self._score_level_impl(
                request,
                probes,
                function_id,
                candidates,
                function_index,
                predecessors,
                requirement,
                input_rate,
                use_global_state,
                None,
            )
        recorder = context.recorder
        num_nodes = len(context.network)
        k = min(prune_k, num_nodes)
        while True:
            pool = self._score_level_impl(
                request,
                probes,
                function_id,
                candidates,
                function_index,
                predecessors,
                requirement,
                input_rate,
                use_global_state,
                k,
            )
            if pool.size or k >= num_nodes:
                if recorder.enabled:
                    recorder.observe("fastscore.pruned_pool_size", float(pool.size))
                return pool
            self.widen_retries += 1
            if recorder.enabled:
                recorder.inc("fastscore.widen_retries")
            k = min(num_nodes, k * 4)

    def _score_level_impl(
        self,
        request: StreamRequest,
        probes: Sequence[object],
        function_id: int,
        candidates: Sequence[Component],
        function_index: int,
        predecessors: Tuple[int, ...],
        requirement: ResourceVector,
        input_rate: float,
        use_global_state: bool,
        prune_k: Optional[int],
    ) -> LevelPool:
        context = self.context
        table = self._table_for(function_id, candidates)
        node_index = table.node_ids

        # -- locality pruning: restrict the pool to the union of the
        # upstream nodes' delay neighbourhoods.  ``sub`` is ascending, so
        # the pruned pool order is a subsequence of the full pool order —
        # and whenever k >= N the neighbourhoods hold every *reachable*
        # node, the excluded candidates are exactly the ones the full scan
        # masks on ``isfinite(link_delay)``, and the two paths make
        # byte-identical decisions.
        sub: Optional[np.ndarray] = None
        # per upstream node on a pruned level, its neighbourhood and each
        # pool node's position in it (-1 outside); a full scan reads the
        # router's trees, whose positions are the node ids
        neighborhoods: Dict[int, Tuple["ShortestPathTree", np.ndarray]] = {}
        if prune_k is not None:
            index = context.neighborhood_index()
            upstream_nodes = sorted(
                {
                    probe.assignment[predecessor].node_id
                    for predecessor in predecessors
                    for probe in probes
                }
            )
            entries = [index.entry(node, prune_k) for node in upstream_nodes]
            # the union as a membership mask: set at the members, read at
            # the candidates, reset at the members — O(P × k), never O(N)
            in_neighborhood = self._in_neighborhood
            for entry in entries:
                in_neighborhood[entry.members] = True
            sub = np.flatnonzero(in_neighborhood[node_index])
            for entry in entries:
                in_neighborhood[entry.members] = False
            if len(sub) == 0:
                empty_int = np.empty(0, dtype=np.int64)
                empty = np.empty(0)
                return LevelPool(
                    table,
                    probes,
                    predecessors,
                    empty_int,
                    empty_int,
                    empty,
                    empty,
                    empty,
                    empty,
                    None,
                    None,
                )
            node_index = node_index[sub]
            for node, entry in zip(upstream_nodes, entries):
                neighborhoods[node] = (entry, entry.positions(node_index))

        # -- probe-independent filters (stream rate, tags, liveness) ----------
        level_mask = input_rate <= table.max_input_rate
        attribute_mask = table.required_attribute_mask(request.required_attributes)
        if attribute_mask is not None:
            level_mask = level_mask & attribute_mask
        if sub is not None:
            level_mask = level_mask[sub]
        level_mask = level_mask & self._alive[node_index]

        if use_global_state:
            table.ensure_stale(context)
            candidate_delay = table.stale_delay
            candidate_loss = table.stale_loss
            available = table.stale_available
        else:
            candidate_delay = table.base_delay
            candidate_loss = table.base_loss
            available = None
        if sub is not None:
            candidate_delay = candidate_delay[sub]
            candidate_loss = candidate_loss[sub]
            if available is not None:
                available = available[sub]

        qos_requirement = request.qos_requirement
        required_delay, required_loss = qos_requirement.values
        bounds_additive = qos_requirement.additive_values()
        requirement_values = requirement.values
        bandwidth_requirements = [
            request.bandwidth_for((predecessor, function_index))
            for predecessor in predecessors
        ]

        probe_count = len(probes)
        pool_size = len(node_index)
        component_ids = (
            table.component_ids if sub is None else table.component_ids[sub]
        )

        # a component instance runs at most one placement per session, so
        # each probe's row starts from the level mask and drops its own
        # already-assigned component ids — which can be in this table only
        # when an earlier placement used this same function
        mask = np.repeat(level_mask[np.newaxis, :], probe_count, axis=0)
        for position, probe in enumerate(probes):
            row = mask[position]
            for assigned in probe.assignment.values():
                if assigned.function.function_id == function_id:
                    row &= component_ids != assigned.component_id

        # -- QoS accumulation through the candidate (worst path) --------------
        # Per predecessor, gather each probe's upstream link row and output
        # QoS, then accumulate over the whole (probes × candidates) batch at
        # once.  Probes that share an upstream node share its rows, gathered
        # once per level.  Dead-end probes (no candidate accepts the
        # upstream format) get an all-False row and zero-filled link values:
        # the zeros keep the batch arithmetic finite but are never read,
        # since nothing in the row can qualify.
        accumulated_delay = None
        accumulated_loss = None
        link_rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for predecessor in predecessors:
            format_rows = np.empty((probe_count, pool_size), dtype=bool)
            link_delay = np.empty((probe_count, pool_size))
            link_loss = np.empty((probe_count, pool_size))
            out_delay = np.empty((probe_count, 1))
            out_loss = np.empty((probe_count, 1))
            for position, probe in enumerate(probes):
                upstream = probe.assignment[predecessor]
                format_mask = table.format_mask(upstream.output_format)
                if format_mask is None:
                    format_rows[position] = False
                    link_delay[position] = 0.0
                    link_loss[position] = 0.0
                    out_delay[position, 0] = 0.0
                    out_loss[position, 0] = 0.0
                    continue
                format_rows[position] = (
                    format_mask if sub is None else format_mask[sub]
                )
                rows = link_rows.get(upstream.node_id)
                if rows is None:
                    neighborhood = neighborhoods.get(upstream.node_id)
                    if neighborhood is None:
                        rows = context.router.virtual_link_rows(
                            upstream.node_id, node_index
                        )
                    else:
                        entry, positions = neighborhood
                        rows = entry.link_rows(positions)
                    link_rows[upstream.node_id] = rows
                link_delay[position], link_loss[position] = rows
                out_delay[position, 0], out_loss[position, 0] = (
                    probe.accumulated_out[predecessor].values
                )
            mask &= format_rows
            mask &= np.isfinite(link_delay)
            accumulated_delay, accumulated_loss = scoring_kernel.through_qos(
                out_delay,
                out_loss,
                link_delay,
                link_loss,
                accumulated_delay,
                accumulated_loss,
            )
        if accumulated_delay is None or accumulated_loss is None:
            pre_delay2d = pre_loss2d = None
            accumulated_delay = np.broadcast_to(
                candidate_delay, (probe_count, pool_size)
            )
            accumulated_loss = np.broadcast_to(
                candidate_loss, (probe_count, pool_size)
            )
        else:
            pre_delay2d = accumulated_delay
            pre_loss2d = accumulated_loss
            accumulated_delay, accumulated_loss = scoring_kernel.finalize_qos(
                accumulated_delay,
                accumulated_loss,
                candidate_delay,
                candidate_loss,
            )

        # -- qualification (Eqs. 6–8) and scores (Eqs. 9–10) ------------------
        qualified = (
            mask
            & (accumulated_delay <= required_delay + 1e-12)
            & (accumulated_loss <= required_loss + 1e-12)
        )
        risk2d = congestion2d = None
        if use_global_state:
            for dimension, required_amount in enumerate(requirement_values):
                qualified &= available[:, dimension] >= required_amount - 1e-9
            bandwidth_rows: List[Tuple[float, np.ndarray]] = []
            stale_rows: Dict[int, np.ndarray] = {}
            for predecessor, bandwidth_required in zip(
                predecessors, bandwidth_requirements
            ):
                rows2d = np.empty((probe_count, pool_size))
                for position, probe in enumerate(probes):
                    upstream_node = probe.assignment[predecessor].node_id
                    row = stale_rows.get(upstream_node)
                    if row is None:
                        row = self._stale_bandwidth(
                            upstream_node,
                            node_index,
                            prune_k,
                            neighborhoods.get(upstream_node),
                        )
                        stale_rows[upstream_node] = row
                    rows2d[position] = row
                bandwidth_rows.append((bandwidth_required, rows2d))
                qualified &= rows2d >= bandwidth_required - 1e-9
            if qualified.any():
                risk2d = self._risk(
                    accumulated_delay, accumulated_loss, bounds_additive
                )
                congestion2d = scoring_kernel.congestion(
                    requirement_values, available, bandwidth_rows, qualified.shape
                )

        probe_index, candidate_index = np.nonzero(qualified)
        count = len(probe_index)
        if risk2d is not None:
            risk = risk2d[probe_index, candidate_index]
            congestion = congestion2d[probe_index, candidate_index]
        else:
            risk = np.zeros(count)
            congestion = risk
        accumulated_delay = accumulated_delay[probe_index, candidate_index]
        accumulated_loss = accumulated_loss[probe_index, candidate_index]
        if pre_delay2d is not None and count:
            pre_delay = pre_delay2d[probe_index, candidate_index]
            pre_loss = pre_loss2d[probe_index, candidate_index]
        else:
            pre_delay = pre_loss = None
        if sub is not None:
            # back to full-pool candidate indices; ``sub`` is ascending,
            # so probe-major pool order is preserved
            candidate_index = sub[candidate_index]

        return LevelPool(
            table,
            probes,
            predecessors,
            probe_index,
            candidate_index,
            risk,
            congestion,
            accumulated_delay,
            accumulated_loss,
            pre_delay,
            pre_loss,
        )

    def _stale_bandwidth(
        self,
        upstream_node: int,
        node_index: np.ndarray,
        prune_k: Optional[int],
        neighborhood: Optional[Tuple["ShortestPathTree", np.ndarray]],
    ) -> np.ndarray:
        """Stale bottleneck bandwidth from ``upstream_node`` to each pool
        node, read through the memo row of its tree.

        The memo row — the min over the coarse-grain link state down the
        tree, folded only down the paths read, ``-inf`` where the tree
        does not reach (which the wavefront masks out anyway) — serves
        every probe and every function level fed from the same upstream
        node and tree size, until a link state update bumps
        ``link_version`` or churn bumps the router's ``epoch`` and a new
        empty row starts.
        """
        context = self.context
        recorder = context.recorder
        stamp = (context.global_state.link_version, context.router.epoch)
        key = (upstream_node, prune_k)
        cached = self._bandwidth_rows.get(key)
        if cached is None or cached[0] != stamp:
            # a row spans the tree's positions: every node, or the members
            # and the "not here" slot
            size = (
                len(context.network)
                if neighborhood is None
                else len(neighborhood[0].delay)
            )
            cached = (stamp, np.full(size, np.nan))
            self._bandwidth_rows[key] = cached
            if recorder.enabled:
                recorder.inc("fastscore.bw_row_build")
        elif recorder.enabled:
            recorder.inc("fastscore.bw_row_hit")
        link_values = context.global_state.link_available_array
        if neighborhood is None:
            return context.router.bottleneck_bandwidth_row(
                upstream_node, link_values, node_index, cached[1]
            )
        entry, positions = neighborhood
        return context.neighborhood_index().stale_bottleneck_row(
            entry, link_values, positions, cached[1]
        )

    @staticmethod
    def _risk(
        accumulated_delay: np.ndarray,
        accumulated_loss: np.ndarray,
        bounds_additive: Tuple[float, ...],
    ) -> np.ndarray:
        """Eq. 9 over the pool: max additive-space utilisation ratio."""
        additive_loss = -np.log1p(-np.minimum(accumulated_loss, _MAX_LOSS))
        ratios = []
        for accumulated, bound in (
            (accumulated_delay, bounds_additive[0]),
            (additive_loss, bounds_additive[1]),
        ):
            if bound <= 0.0:
                ratios.append(np.where(accumulated <= 0.0, 0.0, math.inf))
            else:
                ratios.append(accumulated / bound)
        return np.maximum(ratios[0], ratios[1])
