"""Uniform interface over the two structures a selection can range over.

Both stages select over the same structure, one side object: a multigraph
whose selections are spanning forests, or a matroid whose selections are
bases.  A side answers separation queries against fractional points, by
its one route (`separate_forest` or `separate_rank`; the tests check both
against `tests/reference_separation.py`), and completes a selection
greedily.  A point is a dict of int numerators over one positive `unit`,
the LP tableau's denominator, and a cut is a `Cut` row (ids, int rhs).
The cut loop asks a side only to separate: the LP reads its columns off
the instance's cost columns, not off the side.
`fix` and `remove` give the side with one element committed or discarded;
the solver reads its answer off a single LP vertex and shrinks no side,
and only the benchmark's tracer (`perfbench/tracer.py`) still names them.

Spanning forests are the bases of the graphic matroid, so the graph side
serves both spanning trees and graphic matroids; a spanning forest of a
connected graph is a spanning tree.
"""

from __future__ import annotations

from .matroids import Matroid, greedy_min_basis
from .multigraph import MultiGraph
from .separation import Cut, separate_forest, separate_rank


class GraphSide:
    """Selection structure whose feasible sets are spanning forests."""

    __slots__ = ("graph",)

    def __init__(self, graph: MultiGraph):
        self.graph = graph

    def separate(self, point: dict[int, int], unit: int) -> Cut | None:
        return separate_forest(point, unit, self.graph)

    def fix(self, element: int) -> "GraphSide":
        return GraphSide(self.graph.contract_edge(element))

    def remove(self, element: int) -> "GraphSide":
        return GraphSide(self.graph.delete_edge(element))

    def complete_min(self, weights: dict[int, int]) -> list[int]:
        """Cheapest completion to a full selection (Kruskal, ids break ties:
        the sort is stable)."""
        return self.graph.spanning_forest(sorted(sorted(self.graph.edges), key=weights.__getitem__))


class MatroidSide:
    """Selection structure whose feasible sets are matroid bases."""

    __slots__ = ("matroid",)

    def __init__(self, matroid: Matroid):
        self.matroid = matroid

    def separate(self, point: dict[int, int], unit: int) -> Cut | None:
        return separate_rank(point, unit, self.matroid)

    def fix(self, element: int) -> "MatroidSide":
        return MatroidSide(self.matroid.contract(element))

    def remove(self, element: int) -> "MatroidSide":
        return MatroidSide(self.matroid.delete(element))

    def complete_min(self, weights: dict[int, int]) -> list[int]:
        return greedy_min_basis(self.matroid, weights)
