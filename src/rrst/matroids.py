"""Matroids over integer-labelled ground sets: graphic, uniform, partition.

These are the families the solver, `verify` and the brute-force oracle
run.  A graphic matroid holds its multigraph, a node set and edges by id,
and its independent sets are the forests; the solver selects over it as
spanning forests (`sides.GraphSide`), and a spanning-tree instance is the
graphic matroid of a connected graph.  A uniform matroid is the partition
matroid of one part.  This module holds the structures only: both kinds
of instance document are read in instance.py.  `enumerate_bases` lists
the bases of any matroid, for the oracle, with no case per family.  Two
matroids compare equal when their family and defining data do.

Rank and minimum-weight bases come from one greedy scan, which is exact
for any matroid: against the independence test in general, and as a
Kruskal scan of the multigraph for graphic matroids, whose full rank is
that one scan over the edges.  The solver's
integrality argument uses each stage's base polytope, that is its rank
inequalities and the greedy algorithm, and never a minor; deletion and
contraction serve only `sides`' `fix` and `remove`.

Connectivity is one union-find idiom, in the Kruskal scan and in
`classes` (contraction classes, split into connected parts): a dict maps
each non-root to its parent, a node absent from it is a root, and `_root`
finds a root by a walk that halves the path, pointing every node it steps
from at its grandparent (Tarjan and van Leeuwen, 1984).
"""

from __future__ import annotations

from itertools import chain, starmap
from operator import eq

from .errors import ValidationError


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
    """Forests of a multigraph on `nodes` with `edges`, id -> (u, v):
    parallel edges are fine, self-loops are not.  Immutable in use: a
    minor is a new matroid, whose edges keep their ids."""

    family = "graphic"

    def __init__(self, nodes, edges):
        self.nodes = frozenset(nodes)
        self.edges = dict(edges)
        ends = self.edges.values()
        # checked over all edges at once; the walk only names the first fault
        if any(starmap(eq, ends)) or not self.nodes.issuperset(chain.from_iterable(ends)):
            for eid, (u, v) in self.edges.items():
                if u == v:
                    raise ValidationError(f"edge {eid} is a self-loop on node {u}")
                if u not in self.nodes or v not in self.nodes:
                    raise ValidationError(f"edge {eid}=({u},{v}) has an endpoint outside the node set")
        super().__init__(self.edges)

    def __eq__(self, other):
        if type(other) is not GraphicMatroid:
            return NotImplemented
        return (self.nodes, self.edges) == (other.nodes, other.edges)

    def __hash__(self):
        return hash((self.nodes, frozenset(self.edges.items())))

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        return len(self.max_independent(subset)) == len(subset)

    def max_independent(self, order) -> list[int]:
        """Kruskal scan: the edges of order, in that order, that join two
        components of the forest kept so far; stops at |nodes| - 1 edges."""
        need = len(self.nodes) - 1
        forest: list[int] = []
        if need <= 0:
            return forest
        edges = self.edges
        parent: dict[int, int] = {}  # non-roots only, as in classes
        for eid in order:
            try:
                u, v = edges[eid]
            except KeyError:
                raise ValidationError(f"no edge with id {eid}") from None
            u, v = _root(parent, u), _root(parent, v)
            if u != v:
                parent[u] = v
                forest.append(eid)
                if len(forest) == need:
                    break
        return forest

    def full_rank(self) -> int:
        # one Kruskal scan, in any order: no check or sort of the ground set
        return len(self.max_independent(self.edges))

    def delete(self, e: int) -> "GraphicMatroid":
        """Remove edge e; nodes are kept even if isolated."""
        self._check_elements({e})
        return GraphicMatroid(self.nodes, {f: uv for f, uv in self.edges.items() if f != e})

    def contract(self, e: int) -> "GraphicMatroid":
        """Merge the endpoints of edge e into the smaller label; drop e and
        every edge that becomes a loop."""
        self._check_elements({e})
        u, v = self.edges[e]
        keep, gone = (u, v) if u < v else (v, u)
        edges = {}
        for f, (a, b) in self.edges.items():
            if a == gone:
                a = keep
            if b == gone:
                b = keep
            if a != b:
                edges[f] = (a, b)
        return GraphicMatroid(self.nodes - {gone}, edges)


def _root(parent: dict, x):
    """The root of x's class in parent, which maps each non-root to its
    parent; the walk halves the path as it goes."""
    while x in parent:
        p = parent[x]
        if p in parent:
            parent[x] = p = parent[p]
        x = p
    return x


def classes(items, links) -> tuple[dict, list[list]]:
    """Union-find classes of items, where each link (a, b) joins the classes
    of a and b.  Returns item -> class number and the classes as lists, both
    numbered by first appearance in items and each in the order of items."""
    parent: dict = {}  # the non-roots only
    for a, b in links:
        a, b = _root(parent, a), _root(parent, b)
        if a != b:
            parent[a] = b
    label: dict = {}
    groups: list[list] = []
    number: dict = {}
    for v in items:
        root = _root(parent, v)
        i = number.get(root)
        if i is None:
            i = number[root] = len(groups)
            groups.append([v])
        else:
            groups[i].append(v)
        label[v] = i
    return label, groups


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

    def __eq__(self, other):
        if not isinstance(other, PartitionMatroid):
            return NotImplemented
        return (self.family, self.parts) == (other.family, other.parts)

    def __hash__(self):
        return hash((self.family, self.parts))

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
