"""Matroids over integer-labelled ground sets: graphic, uniform, partition.

Each family is a closed representation: deletion and contraction return a
new matroid of the same family, so rank queries can stay specialized.  A
generic oracle-backed adapter exists for tests that want to cross-check the
closed forms against first principles.  The solver runs a graphic matroid
on its multigraph's spanning forests (`sides.GraphSide`), so the graphic
minors below serve the matroid API and the brute-force oracle.

Rank and minimum-weight bases come from one greedy scan, which is exact
for any matroid: against the independence oracle in general, and as a
Kruskal scan of the multigraph for graphic matroids.  Contraction follows
the minor rules: ground shrinks by the contracted element; if {e} was dependent the
independent sets are simply carried over.  For graphic matroids an edge
parallel to a contracted edge becomes a loop and stays in the ground set
as a rank-zero element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    ElementNotInGround,
    GroundTooLarge,
    ParseError,
    ValidationError,
)
from .instance import (
    CostColumns,
    CostTable,
    _check_cost_ids,
    _check_scale,
    _cost_columns,
    _distinct_ids,
    _edge_columns,
    _int_field,
    _missed_fault,
    _object,
    _objects,
    parse_json,
    read_json,
)
from .multigraph import MultiGraph

ENUMERATION_GROUND_LIMIT = 20


class Matroid:
    """Base class; subclasses implement is_independent and the minor ops."""

    family = "abstract"

    def __init__(self, ground):
        self.ground = frozenset(ground)

    def is_independent(self, subset) -> bool:
        raise NotImplementedError

    def _check_elements(self, subset):
        bad = set(subset) - self.ground
        if bad:
            raise ElementNotInGround(f"elements {sorted(bad)} not in ground set")

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

    def rank(self, subset=None) -> int:
        """Size of a maximum independent subset, by the greedy scan."""
        if subset is None:
            subset = self.ground
        else:
            self._check_elements(subset)
        return len(self.max_independent(sorted(subset)))

    def full_rank(self) -> int:
        return self.rank(self.ground)

    def delete(self, e: int) -> "Matroid":
        raise NotImplementedError

    def contract(self, e: int) -> "Matroid":
        raise NotImplementedError


class GraphicMatroid(Matroid):
    """Forests of a multigraph; loops created by contraction are retained
    as explicit rank-zero elements."""

    family = "graphic"

    def __init__(self, graph: MultiGraph, loops=frozenset()):
        self.graph = graph
        self.loops = frozenset(loops)
        super().__init__(set(graph.edges) | self.loops)

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        if any(e in self.loops for e in subset):
            return False
        return len(self.graph.spanning_forest(subset)) == len(subset)

    def max_independent(self, order) -> list[int]:
        return self.graph.spanning_forest([e for e in order if e not in self.loops])

    def delete(self, e: int) -> "GraphicMatroid":
        self._check_elements({e})
        if e in self.loops:
            return GraphicMatroid(self.graph, self.loops - {e})
        return GraphicMatroid(self.graph.delete_edge(e), self.loops)

    def contract(self, e: int) -> "GraphicMatroid":
        self._check_elements({e})
        if e in self.loops:
            # dependent singleton: independence is unchanged, e just leaves
            return GraphicMatroid(self.graph, self.loops - {e})
        u, v = self.graph.endpoints(e)
        new_loops = set(self.loops)
        for fid, (a, b) in self.graph.edges.items():
            if fid != e and {a, b} == {u, v}:
                new_loops.add(fid)
        return GraphicMatroid(self.graph.contract_edge(e), frozenset(new_loops))


class UniformMatroid(Matroid):
    """Independent iff the subset has at most r elements."""

    family = "uniform"

    def __init__(self, ground, r: int):
        if r < 0:
            raise ValidationError(f"uniform rank {r} is negative")
        self.r = r
        super().__init__(ground)

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        return len(set(subset)) <= self.r

    def delete(self, e: int) -> "UniformMatroid":
        self._check_elements({e})
        return UniformMatroid(self.ground - {e}, self.r)

    def contract(self, e: int) -> "UniformMatroid":
        self._check_elements({e})
        new_r = self.r - 1 if self.r >= 1 else 0
        return UniformMatroid(self.ground - {e}, new_r)


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


class GenericOracleMatroid(Matroid):
    """Adapter around a raw independence oracle; used in tests to validate
    the closed family representations against definition-level semantics."""

    family = "oracle"

    def __init__(self, ground, oracle):
        self._oracle = oracle
        super().__init__(ground)

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        return self._oracle(frozenset(subset))

    def delete(self, e: int) -> "GenericOracleMatroid":
        self._check_elements({e})
        return GenericOracleMatroid(self.ground - {e}, self._oracle)

    def contract(self, e: int) -> "GenericOracleMatroid":
        self._check_elements({e})
        inner = self._oracle
        if self._oracle(frozenset({e})):
            oracle = lambda subset, _e=e, _f=inner: _f(subset | {_e})
        else:
            oracle = inner
        return GenericOracleMatroid(self.ground - {e}, oracle)


def greedy_min_basis(matroid: Matroid, weights) -> list[int]:
    """Minimum-weight basis via matroid greedy; ties broken by smaller id.

    The greedy scan over the whole ground set keeps a maximal independent
    set, which is a basis.
    """
    # the sort is stable, so ids break ties among equal weights
    return sorted(matroid.max_independent(sorted(sorted(matroid.ground), key=weights.__getitem__)))


def enumerate_bases(matroid: Matroid) -> list[tuple[int, ...]]:
    """All bases as sorted tuples, lexicographic order; guarded by ground size."""
    if len(matroid.ground) > ENUMERATION_GROUND_LIMIT:
        raise GroundTooLarge(
            f"ground has {len(matroid.ground)} elements, enumeration capped at {ENUMERATION_GROUND_LIMIT}"
        )
    r = matroid.full_rank()
    ground = sorted(matroid.ground)
    return [
        combo
        for combo in itertools.combinations(ground, r)
        if matroid.is_independent(frozenset(combo))
    ]


@dataclass(frozen=True)
class MatroidInstance:
    matroid: Matroid
    costs: CostColumns
    k: int
    # every cost is an int in units of 1/scale
    scale: int
    # the matroid's full rank, by one greedy scan at construction
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_scale(self.scale)
        r = self.matroid.full_rank()
        if not 0 <= self.k <= r:
            raise ValidationError(f"k={self.k} outside 0..{r}")
        _check_cost_ids(self.costs, self.matroid.ground)
        object.__setattr__(self, "rank", r)

    @property
    def overlap_requirement(self) -> int:
        return self.rank - self.k


def _is_id_list(raw) -> bool:
    return isinstance(raw, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in raw)


def matroid_from_dict(doc) -> Matroid:
    family = doc.get("family")
    if family == "graphic":
        n = _int_field(doc, "nodes", "matroid")
        if n < 0:
            raise ParseError(f"graphic matroid: nodes {n} is negative")
        raw = doc.get("edges")
        if not isinstance(raw, list):
            raise ParseError("graphic matroid: 'edges' must be a list")
        edges = _edge_columns(raw, n)
        if edges is None:
            _raise_graphic_edge_fault(raw, n)
        # an isolated node adds one to both the node count and the number
        # of components, so no rank changes when the graph holds only the
        # nodes its edges touch, however large `nodes` is
        return GraphicMatroid(MultiGraph(itertools.chain.from_iterable(edges.values()), edges))
    if family == "uniform":
        raw = doc.get("elements")
        if not _is_id_list(raw):
            raise ParseError("uniform matroid: 'elements' must be a list of integers")
        if len(set(raw)) != len(raw):
            raise ParseError("uniform matroid: duplicate elements")
        r = _int_field(doc, "rank", "matroid")
        if r < 0:
            raise ParseError(f"uniform matroid: rank {r} is negative")
        return UniformMatroid(frozenset(raw), r)
    if family == "partition":
        raw = doc.get("parts")
        if not isinstance(raw, list):
            raise ParseError("partition matroid: 'parts' must be a list")
        parts = []
        for i, p in enumerate(raw):
            where = f"parts[{i}]"
            elems = _object(p, where).get("elements")
            if not _is_id_list(elems):
                raise ParseError(f"{where}: 'elements' must be a list of integers")
            if len(set(elems)) != len(elems):
                raise ParseError(f"{where}: duplicate elements")
            cap = _int_field(p, "cap", where)
            if cap < 0:
                raise ParseError(f"{where}: cap {cap} is negative")
            parts.append((frozenset(elems), cap))
        try:
            return PartitionMatroid(parts)
        except ValidationError as exc:
            raise ParseError(f"partition matroid: {exc}") from exc
    raise ParseError(f"unknown matroid family {family!r}")


def _raise_graphic_edge_fault(raw, n: int):
    """The per-edge walk: raise the first fault of a graphic edge list."""
    seen = set()
    for i, e in enumerate(raw):
        where = f"edges[{i}]"
        e = _object(e, where)
        eid = _int_field(e, "id", where)
        u = _int_field(e, "u", where)
        v = _int_field(e, "v", where)
        if eid in seen:
            raise ParseError(f"{where}: duplicate edge id {eid}")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ParseError(f"{where}: bad endpoints ({u},{v})")
        seen.add(eid)
    raise _missed_fault("graphic edges")


def _raise_cost_fault(raw):
    """The per-entry walk: raise the first fault of a cost list, by index."""
    costs = CostTable()
    for i, entry in enumerate(raw):
        where = f"costs[{i}]"
        entry = _object(entry, where)
        costs.add(_int_field(entry, "id", where), entry, where)
    raise _missed_fault("costs")


def matroid_instance_from_dict(doc) -> MatroidInstance:
    if not isinstance(doc, dict):
        raise ParseError("matroid instance document must be a JSON object")
    matroid = matroid_from_dict(doc)
    k = _int_field(doc, "k", "matroid instance")
    raw = doc.get("costs")
    if not isinstance(raw, list):
        raise ParseError("matroid instance: 'costs' must be a list")
    ids = _distinct_ids(raw) if _objects(raw) else None
    read = None if ids is None else _cost_columns(raw, ids)
    if read is None:
        _raise_cost_fault(raw)
    costs, scale = read
    return MatroidInstance(matroid=matroid, costs=costs, k=k, scale=scale)


def load_matroid_instance(path) -> MatroidInstance:
    return matroid_instance_from_dict(read_json(path))


def loads_matroid_instance(text) -> MatroidInstance:
    return matroid_instance_from_dict(parse_json(text))
