"""The scoring batches against pure-Python loops, and the bounded row cache.

``repro.core.scoring_kernel`` holds the three elementwise batches of the
fastscore hot path.  Their contract is bit-equality with the scalar
equations, checked here against hand-rolled pure-Python loops.  The
resolved backend name (the benchmark harness stamps it on every run) is
always numpy.

Also covered: the LRU-bounded ``_bandwidth_rows`` cache making identical
decisions at a tiny bound, and the scorer's memory footprint.
"""

import math
import random

import numpy as np
import pytest

from repro.core import ACPComposer, scoring_kernel
from repro.core.scoring_kernel import resolve_scoring_kernel
from repro.experiments import EVALUATION_DEPLOYMENT
from repro.simulation import SystemConfig, build_system
from tests.test_fastscore import outcome_signature, requests_for

CONFIG = SystemConfig(
    num_routers=240, num_nodes=100, deployment=EVALUATION_DEPLOYMENT, seed=7
)


# -- resolution ---------------------------------------------------------------


class TestResolution:
    def test_numpy_always_resolves(self):
        assert resolve_scoring_kernel("numpy") == "numpy"

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_scoring_kernel("auto") == "numpy"


# -- numpy kernel vs a pure-python scalar loop --------------------------------


def scalar_through_qos(out_delay, out_loss, link_delay, link_loss, acc_d, acc_l):
    probes, candidates = link_delay.shape
    delay = np.empty((probes, candidates))
    loss = np.empty((probes, candidates))
    for i in range(probes):
        for j in range(candidates):
            through_d = out_delay[i, 0] + link_delay[i, j]
            through_l = 1.0 - (1.0 - out_loss[i, 0]) * (1.0 - link_loss[i, j])
            if acc_d is None:
                delay[i, j] = through_d
                loss[i, j] = through_l
            else:
                delay[i, j] = max(acc_d[i, j], through_d)
                loss[i, j] = max(acc_l[i, j], through_l)
    return delay, loss


def scalar_congestion(requirement_values, available, bandwidth_rows, shape):
    total = np.zeros(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            value = 0.0
            for dimension, required in enumerate(requirement_values):
                if required <= 0.0:
                    continue
                column = available[j, dimension]
                value += required / column if column > 0.0 else math.inf
            for bandwidth_required, rows in bandwidth_rows:
                if bandwidth_required <= 0.0:
                    continue
                row_value = rows[i, j]
                value += (
                    bandwidth_required / row_value if row_value > 0.0 else math.inf
                )
            total[i, j] = value
    return total


def random_batch(seed, probes=5, candidates=17):
    rng = np.random.default_rng(seed)
    out_delay = rng.uniform(0.0, 400.0, (probes, 1))
    out_loss = rng.uniform(0.0, 0.3, (probes, 1))
    link_delay = rng.uniform(0.0, 200.0, (probes, candidates))
    link_delay[rng.random((probes, candidates)) < 0.1] = np.inf
    link_loss = rng.uniform(0.0, 0.2, (probes, candidates))
    return out_delay, out_loss, link_delay, link_loss


#: The batch implementations under test, by backend name (numpy only).
KERNELS = {"numpy": scoring_kernel}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", range(5))
def test_through_qos_matches_scalar_loop(name, seed):
    kernel = KERNELS[name]
    out_delay, out_loss, link_delay, link_loss = random_batch(seed)
    first = kernel.through_qos(
        out_delay, out_loss, link_delay, link_loss, None, None
    )
    reference = scalar_through_qos(
        out_delay, out_loss, link_delay, link_loss, None, None
    )
    for got, want in zip(first, reference):
        np.testing.assert_array_equal(got, want)
    # second predecessor: the max fold
    out2, outl2, ld2, ll2 = random_batch(seed + 100)
    folded = kernel.through_qos(out2, outl2, ld2, ll2, first[0], first[1])
    reference2 = scalar_through_qos(out2, outl2, ld2, ll2, first[0], first[1])
    for got, want in zip(folded, reference2):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", range(5))
def test_finalize_qos_matches_scalar_loop(name, seed):
    kernel = KERNELS[name]
    rng = np.random.default_rng(seed)
    acc_d = rng.uniform(0.0, 500.0, (4, 13))
    acc_l = rng.uniform(0.0, 0.4, (4, 13))
    cand_d = rng.uniform(0.0, 50.0, 13)
    cand_l = rng.uniform(0.0, 0.1, 13)
    got_d, got_l = kernel.finalize_qos(acc_d, acc_l, cand_d, cand_l)
    want_d = np.array(
        [[acc_d[i, j] + cand_d[j] for j in range(13)] for i in range(4)]
    )
    want_l = np.array(
        [
            [1.0 - (1.0 - acc_l[i, j]) * (1.0 - cand_l[j]) for j in range(13)]
            for i in range(4)
        ]
    )
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_l, want_l)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("seed", range(5))
def test_congestion_matches_scalar_loop(name, seed):
    kernel = KERNELS[name]
    rng = np.random.default_rng(seed)
    shape = (4, 11)
    requirement_values = (4.0, 25.0, 0.0)
    available = rng.uniform(-5.0, 100.0, (shape[1], len(requirement_values)))
    bandwidth_rows = [
        (180.0, rng.uniform(-10.0, 50_000.0, shape)),
        (0.0, rng.uniform(0.0, 1.0, shape)),
        (90.0, rng.uniform(-10.0, 50_000.0, shape)),
    ]
    got = kernel.congestion(requirement_values, available, bandwidth_rows, shape)
    want = scalar_congestion(
        requirement_values, available, bandwidth_rows, shape
    )
    np.testing.assert_array_equal(got, want)


# -- bounded scorer row cache -------------------------------------------------


def test_tiny_row_cache_makes_identical_decisions():
    """A scorer limited to 2 cached bandwidth rows decides exactly like
    one whose bound exceeds the node count, so it never evicts — evicted
    rows are re-derived value-identically."""
    bounded_system = build_system(
        SystemConfig(
            num_routers=240,
            num_nodes=100,
            deployment=EVALUATION_DEPLOYMENT,
            seed=7,
            scorer_row_cache_size=2,
        )
    )
    reference_system = build_system(
        SystemConfig(
            num_routers=240,
            num_nodes=100,
            deployment=EVALUATION_DEPLOYMENT,
            seed=7,
            scorer_row_cache_size=100,
        )
    )
    bounded_ctx = bounded_system.composition_context(rng=random.Random(11))
    reference_ctx = reference_system.composition_context(rng=random.Random(11))
    bounded = ACPComposer(bounded_ctx, probing_ratio=0.3)
    reference = ACPComposer(reference_ctx, probing_ratio=0.3)
    for req_a, req_b in zip(
        requests_for(bounded_system, 25), requests_for(reference_system, 25)
    ):
        out_a = bounded.compose(req_a)
        bounded_ctx.allocator.cancel_transient(req_a.request_id)
        out_b = reference.compose(req_b)
        reference_ctx.allocator.cancel_transient(req_b.request_id)
        assert outcome_signature(req_a, out_a) == outcome_signature(
            req_b, out_b
        )
    scorer = bounded_ctx.fast_scorer()
    assert len(scorer._bandwidth_rows) <= 2
    assert scorer._bandwidth_rows.evictions > 0
    assert reference_ctx.fast_scorer()._bandwidth_rows.evictions == 0


def test_scorer_memory_footprint_reports_tables_and_rows():
    system = build_system(CONFIG)
    context = system.composition_context(rng=random.Random(11))
    composer = ACPComposer(context, probing_ratio=0.3)
    for request in requests_for(system, 5):
        composer.compose(request)
        context.allocator.cancel_transient(request.request_id)
    footprint = context.fast_scorer().memory_footprint()
    assert footprint["tables"] > 0
    assert footprint["bandwidth_rows"] > 0
    # one byte per node: the pruned levels' neighbourhood membership mask
    assert footprint["neighborhood_mask"] == len(system.network)
    assert footprint["total"] == (
        footprint["tables"]
        + footprint["bandwidth_rows"]
        + footprint["neighborhood_mask"]
    )
