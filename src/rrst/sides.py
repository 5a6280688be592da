"""Uniform interface over the two structures a recovery stage can range over.

The solver treats the first-stage and second-stage selection problems
symmetrically: each side owns a shrinking structure (a multigraph whose
selections are spanning trees, or a matroid whose selections are bases),
answers separation queries against fractional points, and shrinks by either
discarding an element or committing to one.
"""

from __future__ import annotations

from .errors import NoBasis
from .matroids import Matroid, greedy_min_basis
from .multigraph import MultiGraph
from .rational import Rat
from .separation import (
    ViolatedCut,
    separate_forest_candidates,
    separate_forest_exhaustive,
    separate_rank,
    separate_rank_exhaustive,
)


class GraphSide:
    """Selection structure whose feasible sets are spanning trees."""

    __slots__ = ("graph",)

    def __init__(self, graph: MultiGraph):
        self.graph = graph

    @property
    def element_ids(self) -> list[int]:
        return self.graph.edge_ids()

    def is_active(self) -> bool:
        return self.graph.node_count >= 2

    def target_size(self) -> int:
        """Number of elements a completed selection must still add."""
        return self.graph.node_count - 1

    def separate(self, point: dict[int, Rat], separation: str, cuts_per_round: str) -> list[ViolatedCut]:
        if separation == "exhaustive":
            cut = separate_forest_exhaustive(point, self.graph)
            return [cut] if cut is not None else []
        if cuts_per_round == "all":
            return separate_forest_candidates(point, self.graph)
        candidates = separate_forest_candidates(point, self.graph, stop_early=True)
        return candidates[:1]

    def same_structure(self, other) -> bool:
        """True when both sides select over the identical structure."""
        return (
            isinstance(other, GraphSide)
            and self.graph.nodes == other.graph.nodes
            and self.graph.edges == other.graph.edges
        )

    def fix(self, element: int) -> "GraphSide":
        return GraphSide(self.graph.contract_edge(element))

    def remove(self, element: int) -> "GraphSide":
        return GraphSide(self.graph.delete_edge(element))

    def complete_min(self, weights: dict[int, Rat]) -> list[int]:
        """Cheapest completion to a full selection (Kruskal, ids break ties)."""
        need = self.target_size()
        order = sorted(self.graph.edge_ids(), key=lambda e: (weights[e], e))
        chosen = self.graph.spanning_forest(order)
        if len(chosen) < need:
            raise NoBasis(f"graph is not connected; only {len(chosen)} of {need} edges found")
        return chosen


class MatroidSide:
    """Selection structure whose feasible sets are matroid bases."""

    __slots__ = ("matroid",)

    def __init__(self, matroid: Matroid):
        self.matroid = matroid

    @property
    def element_ids(self) -> list[int]:
        return sorted(self.matroid.ground)

    def is_active(self) -> bool:
        return len(self.matroid.ground) > 0

    def target_size(self) -> int:
        return self.matroid.full_rank()

    def separate(self, point: dict[int, Rat], separation: str, cuts_per_round: str) -> list[ViolatedCut]:
        if separation == "exhaustive":
            cut = separate_rank_exhaustive(point, self.matroid)
        else:
            cut = separate_rank(point, self.matroid)
        return [cut] if cut is not None else []

    def same_structure(self, other) -> bool:
        # conservative: never merge matroid-side separation sweeps
        return False

    def fix(self, element: int) -> "MatroidSide":
        return MatroidSide(self.matroid.contract(element))

    def remove(self, element: int) -> "MatroidSide":
        return MatroidSide(self.matroid.delete(element))

    def complete_min(self, weights: dict[int, Rat]) -> list[int]:
        return greedy_min_basis(self.matroid, weights, required_size=self.target_size())
