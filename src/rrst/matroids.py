"""Matroids over integer-labelled ground sets: graphic, uniform, partition.

These are the families the solver, `verify` and the brute-force oracle
run.  A graphic matroid is the forests of a multigraph, which the solver
selects over as spanning forests (`sides.GraphSide`); a spanning-tree
instance is the graphic matroid of a connected graph.  A uniform matroid
is the partition matroid of one part.  This module holds the structures
only: both kinds of instance document are read in instance.py.
`enumerate_bases` lists the bases of any matroid, for the oracle, with
no case per family.

Rank and minimum-weight bases come from one greedy scan, which is exact
for any matroid: against the independence test in general, and as a
Kruskal scan of the multigraph for graphic matroids, whose full rank is
that one scan over the edges.  The solver's
integrality argument uses each stage's base polytope, that is its rank
inequalities and the greedy algorithm, and never a minor; a partition
matroid's deletion and contraction serve only `sides.MatroidSide`'s
`fix` and `remove`.
"""

from __future__ import annotations

from .errors import ValidationError
from .multigraph import MultiGraph


class Matroid:
    """Base class; subclasses implement is_independent."""

    family = "abstract"

    def __init__(self, ground):
        self.ground = frozenset(ground)

    def is_independent(self, subset) -> bool:
        raise NotImplementedError

    def _check_elements(self, subset):
        bad = set(subset) - self.ground
        if bad:
            raise ValidationError(f"elements {sorted(bad)} not in ground set")

    def max_independent(self, order) -> list[int]:
        """Greedy scan: the elements of order, in that order, that stay
        independent of those kept before them."""
        picked: set[int] = set()
        kept = []
        for e in order:
            picked.add(e)
            if self.is_independent(picked):
                kept.append(e)
            else:
                picked.discard(e)
        return kept

    def rank(self, subset) -> int:
        """Size of a maximum independent subset of `subset`, elements of the
        ground set, by the greedy scan; full_rank() ranks the whole ground."""
        self._check_elements(subset)
        return len(self.max_independent(sorted(subset)))

    def full_rank(self) -> int:
        return self.rank(self.ground)


class GraphicMatroid(Matroid):
    """Forests of a multigraph."""

    family = "graphic"

    def __init__(self, graph: MultiGraph):
        self.graph = graph
        super().__init__(graph.edges)

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        return len(self.graph.spanning_forest(subset)) == len(subset)

    def max_independent(self, order) -> list[int]:
        return self.graph.spanning_forest(order)

    def full_rank(self) -> int:
        # one Kruskal scan, in any order: no check or sort of the ground set
        return len(self.graph.spanning_forest(self.graph.edges))


class PartitionMatroid(Matroid):
    """Independent iff each block contributes at most its capacity."""

    family = "partition"

    def __init__(self, parts):
        # parts: sequence of (elements, cap); blocks must be disjoint
        norm = []
        seen: set[int] = set()
        for elements, cap in parts:
            elements = frozenset(elements)
            if cap < 0:
                raise ValidationError(f"partition capacity {cap} is negative")
            if elements & seen:
                raise ValidationError("partition blocks overlap")
            seen |= elements
            norm.append((elements, cap))
        self.parts = tuple(norm)
        super().__init__(seen)

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        s = set(subset)
        return all(len(s & elements) <= cap for elements, cap in self.parts)

    def delete(self, e: int) -> "PartitionMatroid":
        self._check_elements({e})
        parts = [(elements - {e}, cap) for elements, cap in self.parts]
        return PartitionMatroid(parts)

    def contract(self, e: int) -> "PartitionMatroid":
        self._check_elements({e})
        parts = []
        for elements, cap in self.parts:
            if e in elements:
                # capacity drops only if {e} was independent in this block
                parts.append((elements - {e}, cap - 1 if cap >= 1 else 0))
            else:
                parts.append((elements, cap))
        return PartitionMatroid(parts)


class UniformMatroid(PartitionMatroid):
    """Independent iff the subset has at most r elements: the partition
    matroid of the one part (ground, r)."""

    family = "uniform"

    def __init__(self, ground, r: int):
        if r < 0:
            raise ValidationError(f"uniform rank {r} is negative")
        super().__init__([(ground, r)])


def greedy_min_basis(matroid: Matroid, weights) -> list[int]:
    """Minimum-weight basis via matroid greedy; ties broken by smaller id.

    The greedy scan over the whole ground set keeps a maximal independent
    set, which is a basis.
    """
    # the sort is stable, so ids break ties among equal weights
    return sorted(matroid.max_independent(sorted(sorted(matroid.ground), key=weights.__getitem__)))


def enumerate_bases(matroid: Matroid):
    """All bases as sorted tuples, in lexicographic order, one at a time.

    A backtrack over the sorted ground set with an explicit stack: each
    level tries its next element while the chosen prefix, with every element
    from there on, still spans the full rank, and takes it when it keeps the
    prefix independent.  So every branch it enters ends in a basis, and the
    delay between two bases is polynomial (Read and Tarjan, 1975); there is
    no bound, and a caller takes as many as it wants.
    """
    r = matroid.full_rank()
    ground = sorted(matroid.ground)
    chosen: list[int] = []
    stack = [0]  # one entry per level: the index of its next element
    while stack:
        i = stack[-1]
        if len(chosen) == r:
            yield tuple(chosen)
        # the rank of the prefix with the rest: one greedy scan, over
        # elements of the ground set that need no check
        elif len(matroid.max_independent(chosen + ground[i:])) == r:
            stack[-1] = i + 1
            if matroid.is_independent(chosen + [ground[i]]):
                chosen.append(ground[i])
                stack.append(i + 1)
            continue
        stack.pop()
        if chosen:
            chosen.pop()
