"""Unit tests for the application template library."""

import random

import pytest

from repro.model.functions import FunctionCatalog
from repro.model.templates import TemplateLibrary


@pytest.fixture
def catalog():
    # overrides the session default: DAG templates draw up to 12 distinct
    # functions (2 branches of 5 plus source and join)
    return FunctionCatalog(size=20, num_formats=2)


@pytest.fixture
def library(catalog):
    return TemplateLibrary(catalog, size=10, seed=3)


class TestGeneration:
    def test_size(self, library):
        assert len(library) == 10

    def test_default_paper_size(self):
        catalog = FunctionCatalog()
        assert len(TemplateLibrary(catalog)) == 20

    def test_deterministic_for_seed(self, catalog):
        a = TemplateLibrary(catalog, size=8, seed=5)
        b = TemplateLibrary(catalog, size=8, seed=5)
        for ta, tb in zip(a.templates, b.templates):
            assert ta.name == tb.name
            assert [n.function.function_id for n in ta.graph.nodes] == [
                n.function.function_id for n in tb.graph.nodes
            ]
            assert ta.graph.edges == tb.graph.edges

    def test_different_seeds_differ(self, catalog):
        a = TemplateLibrary(catalog, size=8, seed=5)
        b = TemplateLibrary(catalog, size=8, seed=6)
        assert any(
            ta.graph.edges != tb.graph.edges
            or [n.function.function_id for n in ta.graph.nodes]
            != [n.function.function_id for n in tb.graph.nodes]
            for ta, tb in zip(a.templates, b.templates)
        )

    def test_shapes_are_paths_or_two_branch_dags(self, catalog):
        library = TemplateLibrary(catalog, size=30, seed=1, dag_fraction=0.5)
        for template in library.templates:
            graph = template.graph
            if graph.is_path():
                continue
            # two-branch DAG: single source, single sink, join in-degree 2
            assert len(graph.sources()) == 1
            assert len(graph.sinks()) == 1
            sink = graph.sinks()[0]
            assert len(graph.predecessors(sink)) == 2

    def test_path_lengths_within_range(self, catalog):
        library = TemplateLibrary(
            catalog, size=40, seed=2, path_length_range=(2, 5), dag_fraction=0.0
        )
        for template in library.templates:
            assert 2 <= len(template.graph) <= 5

    def test_dag_only_library(self, catalog):
        library = TemplateLibrary(catalog, size=10, seed=2, dag_fraction=1.0)
        assert all(not t.graph.is_path() for t in library.templates)

    def test_distinct_functions_within_template(self, catalog):
        library = TemplateLibrary(catalog, size=20, seed=4)
        for template in library.templates:
            ids = [n.function.function_id for n in template.graph.nodes]
            assert len(set(ids)) == len(ids)
            assert all(0 <= i < len(catalog) for i in ids)


class TestValidation:
    def test_bad_size(self, catalog):
        with pytest.raises(ValueError, match="positive"):
            TemplateLibrary(catalog, size=0)

    def test_bad_length_range(self, catalog):
        with pytest.raises(ValueError, match="path_length_range"):
            TemplateLibrary(catalog, path_length_range=(3, 2))

    def test_bad_dag_fraction(self, catalog):
        with pytest.raises(ValueError, match="dag_fraction"):
            TemplateLibrary(catalog, dag_fraction=1.5)


class TestSampling:
    def test_sample_is_uniform_over_library(self, library):
        rng = random.Random(0)
        seen = {library.sample(rng).template_id for _ in range(500)}
        assert seen == set(range(10))

    def test_indexing(self, library):
        assert library[3].template_id == 3
