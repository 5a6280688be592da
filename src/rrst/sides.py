"""Uniform interface over the two routes a selection can be separated by.

Both stages select bases of the same matroid, one side object: a graphic
matroid, whose bases are spanning forests, or a partition matroid.  A side
answers separation queries against fractional points, by its one route
(`separate_forest` or `separate_rank`; the tests check both against
`tests/reference_separation.py`), and completes a selection greedily.  A
point is a dict of int numerators over one positive `unit`, the LP
tableau's denominator, and a cut is a `Cut` row (ids, int rhs).
The cut loop asks a side only to separate: the LP reads its columns off
the instance's cost columns, not off the side.
`fix` and `remove` give the side with one element committed or discarded,
the matroid's contraction or deletion; the solver reads its answer off a
single LP vertex and shrinks no side, and only the benchmark's tracer
(`perfbench/tracer.py`) still names them.

The two sides differ only in `separate`.  Spanning forests are the bases
of the graphic matroid, so the graph side serves both spanning trees and
graphic matroids; a spanning forest of a connected graph is a spanning
tree.
"""

from __future__ import annotations

from .matroids import Matroid, greedy_min_basis
from .separation import Cut, separate_forest, separate_rank


class _Side:
    """A selection structure over `matroid`, whose feasible sets are its
    bases."""

    __slots__ = ("matroid",)

    def __init__(self, matroid: Matroid):
        self.matroid = matroid

    def fix(self, element: int):
        return type(self)(self.matroid.contract(element))

    def remove(self, element: int):
        return type(self)(self.matroid.delete(element))

    def complete_min(self, weights: dict[int, int]) -> list[int]:
        """Cheapest completion to a full selection, ids ascending (the
        greedy scan; ids break ties)."""
        return greedy_min_basis(self.matroid, weights)


class GraphSide(_Side):
    """Selections of a graphic matroid: spanning forests, separated by
    min cuts."""

    __slots__ = ()

    def separate(self, point: dict[int, int], unit: int) -> Cut | None:
        return separate_forest(point, unit, self.matroid)


class MatroidSide(_Side):
    """Selections of a partition matroid, separated by prefix scans."""

    __slots__ = ()

    def separate(self, point: dict[int, int], unit: int) -> Cut | None:
        return separate_rank(point, unit, self.matroid)
