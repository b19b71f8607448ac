"""Application template library.

Section 4.1: "The function graph of a stream processing request is randomly
selected from 20 pre-defined stream processing application templates.  Each
function graph is either a path or a DAG with two branch paths.  Each path
or branch path includes [2, 5] nodes."

An :class:`ApplicationTemplate` is a named, reusable function graph ("which
can be provided by the application developer", Section 2.2);
:class:`TemplateLibrary` generates the paper's 20 pre-defined templates from
a function catalog using a seeded RNG, and hands them out uniformly at
random to the workload generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.model.function_graph import FunctionGraph
from repro.model.functions import FunctionCatalog, StreamFunction


@dataclass(frozen=True)
class ApplicationTemplate:
    """A named stream processing application template."""

    template_id: int
    name: str
    graph: FunctionGraph

    def __repr__(self) -> str:
        return f"ApplicationTemplate(#{self.template_id} {self.name}: {self.graph!r})"


class TemplateLibrary:
    """The pre-defined application templates available to users.

    Args:
        catalog: Function catalog to draw stages from.
        size: Number of templates (paper default: 20).
        path_length_range: Inclusive bounds on the number of functions in a
            path, or in each branch of a two-branch DAG (paper: [2, 5]).
        dag_fraction: Fraction of templates shaped as two-branch DAGs; the
            rest are simple paths.
        seed: Seed for the deterministic template generation.
    """

    def __init__(
        self,
        catalog: FunctionCatalog,
        size: int = 20,
        path_length_range: Tuple[int, int] = (2, 5),
        dag_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if size <= 0:
            raise ValueError(f"library size must be positive, got {size}")
        low, high = path_length_range
        if not (1 <= low <= high):
            raise ValueError(f"invalid path_length_range {path_length_range}")
        if not 0.0 <= dag_fraction <= 1.0:
            raise ValueError(f"dag_fraction must be in [0, 1], got {dag_fraction}")
        self.catalog = catalog
        self._templates: List[ApplicationTemplate] = []
        rng = random.Random(seed)
        for template_id in range(size):
            make_dag = rng.random() < dag_fraction
            if make_dag:
                graph = self._generate_dag(rng, path_length_range)
                name = f"dag-template-{template_id:02d}"
            else:
                graph = self._generate_path(rng, path_length_range)
                name = f"path-template-{template_id:02d}"
            self._templates.append(ApplicationTemplate(template_id, name, graph))

    def _draw_functions(self, rng: random.Random, count: int) -> List[StreamFunction]:
        """Draw ``count`` distinct functions from the catalog."""
        indices = rng.sample(range(len(self.catalog)), count)
        return [self.catalog[i] for i in indices]

    def _generate_path(
        self, rng: random.Random, length_range: Tuple[int, int]
    ) -> FunctionGraph:
        length = rng.randint(*length_range)
        return FunctionGraph.path(self._draw_functions(rng, length))

    def _generate_dag(
        self, rng: random.Random, length_range: Tuple[int, int]
    ) -> FunctionGraph:
        branch_a_length = rng.randint(*length_range)
        branch_b_length = rng.randint(*length_range)
        functions = self._draw_functions(rng, branch_a_length + branch_b_length + 2)
        source = functions[0]
        join = functions[-1]
        branch_a = functions[1 : 1 + branch_a_length]
        branch_b = functions[1 + branch_a_length : -1]
        return FunctionGraph.two_branch(source, branch_a, branch_b, join)

    # -- access ----------------------------------------------------------------

    @property
    def templates(self) -> Tuple[ApplicationTemplate, ...]:
        return tuple(self._templates)

    def __len__(self) -> int:
        return len(self._templates)

    def __getitem__(self, template_id: int) -> ApplicationTemplate:
        return self._templates[template_id]

    def sample(self, rng: random.Random) -> ApplicationTemplate:
        """Uniformly random template (Section 4.1's request model).

        The caller must supply a seeded stream — the library never falls
        back to process-global entropy, so same-seed runs replay exactly.
        """
        return self._templates[rng.randrange(len(self._templates))]
