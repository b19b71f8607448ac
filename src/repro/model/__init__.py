"""Domain model: QoS/resource vectors, functions, components, nodes, graphs.

This subpackage defines the vocabulary of the paper's Section 2 system
model.  Everything here is either immutable data or a small mutable entity
(:class:`Node`) with observable state changes; all algorithms live in
``repro.core`` and all dynamics in ``repro.simulation``.
"""

from repro.model.component import Component
from repro.model.component_graph import ComponentGraph, VirtualLinkPath
from repro.model.function_graph import FunctionGraph, FunctionNode
from repro.model.functions import DEFAULT_CATEGORIES, FunctionCatalog, StreamFunction
from repro.model.node import InsufficientResourcesError, Node
from repro.model.qos import QoSVector
from repro.model.request import (
    DEFAULT_KBPS_PER_UNIT,
    StreamRequest,
    derive_bandwidth_requirements,
)
from repro.model.resources import (
    DEFAULT_RESOURCE_SCHEMA,
    ResourceSchema,
    ResourceSpec,
    ResourceVector,
    congestion_terms,
)
from repro.model.templates import ApplicationTemplate, TemplateLibrary

__all__ = [
    "Component",
    "ComponentGraph",
    "VirtualLinkPath",
    "FunctionGraph",
    "FunctionNode",
    "FunctionCatalog",
    "StreamFunction",
    "DEFAULT_CATEGORIES",
    "Node",
    "InsufficientResourcesError",
    "QoSVector",
    "StreamRequest",
    "derive_bandwidth_requirements",
    "DEFAULT_KBPS_PER_UNIT",
    "ResourceSchema",
    "ResourceSpec",
    "ResourceVector",
    "DEFAULT_RESOURCE_SCHEMA",
    "congestion_terms",
    "ApplicationTemplate",
    "TemplateLibrary",
]
