"""What the benchmark in ``perfbench/`` needs of the program, checked in
tier-1 so a refactor that breaks a traced benchmark run fails here first.

``python3 perfbench/run.py --trace 1`` wraps every attribute named in
``perfbench/tracing.py``'s ``SPAN_TARGETS`` and ``COUNT_TARGETS``, and
restores it from ``owner.__dict__[attribute]``: an attribute that moved
into a base class, or was renamed, stops the traced run.  Every run
builds its workload's ``RunSpec`` from ``perfbench/workloads.py``, and
``harness.stamp`` resolves the scoring kernel it records.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

TARGETS = [
    (module_name, owner_name, attribute)
    for _, module_name, owner_name, attributes in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    for attribute in attributes
]


@pytest.mark.parametrize(
    "module_name, owner_name, attribute",
    TARGETS,
    ids=[f"{owner or module}.{attribute}" for module, owner, attribute in TARGETS],
)
def test_wrapped_attribute_is_the_owners_own(module_name, owner_name, attribute):
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert attribute in owner.__dict__
    assert callable(owner.__dict__[attribute])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_its_run_spec(name):
    workload = workloads.WORKLOADS[name]
    system = workload.spec(1).system
    assert system.num_nodes == workload.num_nodes
    if workload.cache_size is not None:
        assert (
            system.router_cache_size,
            system.scorer_row_cache_size,
            system.neighborhood_cache_size,
        ) == (workload.cache_size,) * 3


def test_scale_workload_sets_every_cache_bound():
    assert workloads.WORKLOADS["scale-2000"].cache_size == 256


def test_stamped_scoring_kernel_resolves():
    from repro.core.scoring_kernel import resolve_scoring_kernel

    assert resolve_scoring_kernel("auto")
