"""Matroid families: axioms, minors, value equality, greedy optimality, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrst.errors import ParseError, ValidationError
from rrst.instance import matroid_from_dict
from rrst.matroids import GraphicMatroid, PartitionMatroid, UniformMatroid, enumerate_bases, greedy_min_basis
from rrst.rational import rat

from conftest import GenericOracleMatroid


def k4_matroid():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return GraphicMatroid(range(4), dict(enumerate(pairs)))


def subsets(ground, max_size=None):
    ground = sorted(ground)
    hi = len(ground) if max_size is None else max_size
    for r in range(hi + 1):
        yield from (frozenset(c) for c in itertools.combinations(ground, r))


def assert_matroid_axioms(m):
    """Definition-level check: empty set, heredity, exchange."""
    ground = sorted(m.ground)
    assert m.is_independent(frozenset())
    indep = [s for s in subsets(ground) if m.is_independent(s)]
    indep_set = set(indep)
    for s in indep:
        for e in s:
            assert s - {e} in indep_set, f"heredity fails at {sorted(s)} minus {e}"
    for a in indep:
        for b in indep:
            if len(a) < len(b):
                assert any(a | {e} in indep_set for e in b - a), (
                    f"exchange fails: {sorted(a)} vs {sorted(b)}"
                )


@pytest.mark.parametrize(
    "matroid",
    [
        UniformMatroid(frozenset(range(5)), 2),
        UniformMatroid(frozenset(range(4)), 0),
        UniformMatroid(frozenset(range(3)), 3),
        PartitionMatroid([(frozenset({0, 1, 2}), 1), (frozenset({3, 4}), 2)]),
        PartitionMatroid([(frozenset({0, 1}), 0), (frozenset({2, 3}), 1)]),
        k4_matroid(),
    ],
    ids=["u52", "u40", "u33", "part", "part0", "k4"],
)
def test_families_satisfy_axioms(matroid):
    assert_matroid_axioms(matroid)


@given(st.integers(2, 5), st.integers(0, 5), st.booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_minors_preserve_axioms(n, r, graphic, data):
    m = k4_matroid() if graphic else UniformMatroid(frozenset(range(n)), min(r, n))
    for _ in range(data.draw(st.integers(0, 2))):
        if not m.ground:
            break
        e = data.draw(st.sampled_from(sorted(m.ground)))
        m = m.contract(e) if data.draw(st.booleans()) else m.delete(e)
    assert_matroid_axioms(m)


def test_rank_identities_k4():
    m = k4_matroid()
    assert m.full_rank() == 3
    assert m.rank({0, 1}) == 2
    assert m.rank({0, 1, 3}) == 2  # triangle 0-1-2
    assert m.rank(set()) == 0


def partition_matroid():
    # the cap-0 part makes element 5 a loop
    return PartitionMatroid([(frozenset({0, 1, 2}), 2), (frozenset({3, 4}), 1), (frozenset({5}), 0)])


def test_contract_rank_identity():
    # rank in M/e of S equals rank_M(S + e) - rank_M(e), loops included; a
    # graphic contraction drops the edges that become loops, and one edge
    # of K4, which has no parallel edges, makes none
    for m in (partition_matroid(), k4_matroid()):
        for e in sorted(m.ground):
            mc = m.contract(e)
            assert mc.ground == m.ground - {e}
            for s in subsets(mc.ground):
                assert mc.rank(s) == m.rank(set(s) | {e}) - m.rank({e})


def test_delete_preserves_independence():
    for m in (partition_matroid(), k4_matroid()):
        for e in sorted(m.ground):
            md = m.delete(e)
            assert md.ground == m.ground - {e}
            for s in subsets(md.ground):
                assert md.is_independent(s) == m.is_independent(s)


def test_matroids_compare_by_value():
    """Two matroids are equal, with equal hashes, when their family and
    defining data are: a graphic matroid's nodes and edges, a partition
    or uniform matroid's parts."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert k4_matroid() == k4_matroid() and hash(k4_matroid()) == hash(k4_matroid())
    assert k4_matroid() != GraphicMatroid(range(4), dict(enumerate(pairs[::-1])))
    assert k4_matroid() != GraphicMatroid(range(5), dict(enumerate(pairs)))
    assert k4_matroid().delete(5) != k4_matroid() and k4_matroid().contract(0) == k4_matroid().contract(0)
    assert partition_matroid() == partition_matroid() and hash(partition_matroid()) == hash(partition_matroid())
    assert partition_matroid() != PartitionMatroid([(frozenset({0, 1, 2}), 1), (frozenset({3, 4}), 1),
                                                    (frozenset({5}), 0)])
    ground = frozenset(range(3))
    assert UniformMatroid(ground, 2) == UniformMatroid(set(ground), 2) != UniformMatroid(ground, 1)
    # a uniform matroid is not the partition matroid of its one part
    assert UniformMatroid(ground, 2) != PartitionMatroid([(ground, 2)])
    assert PartitionMatroid([(ground, 2)]) != UniformMatroid(ground, 2)
    assert UniformMatroid(ground, 2) != GraphicMatroid(range(2), {0: (0, 1), 1: (0, 1), 2: (0, 1)})


def test_uniform_is_independent_by_size():
    # a uniform matroid is the partition matroid of one part (ground, r)
    for size in range(7):
        ground = frozenset(range(10, 10 + 3 * size, 3))
        for r in range(size + 2):
            m = UniformMatroid(ground, r)
            assert m.parts == ((ground, r),)
            for s in subsets(ground):
                assert m.is_independent(s) == (len(s) <= r), (size, r, sorted(s))


def test_generic_oracle_matches_graphic():
    # the graphic rank and minimum basis are Kruskal scans; the oracle
    # adapter reaches them by the generic greedy over independence calls,
    # here on K4 and on a disconnected multigraph with parallel edges
    multi = GraphicMatroid(range(5), {0: (0, 1), 1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (3, 4)})
    for m in (k4_matroid(), multi):
        o = GenericOracleMatroid(m.ground, m.is_independent)
        assert o.full_rank() == m.full_rank()
        for s in subsets(m.ground):
            assert o.is_independent(s) == m.is_independent(s)
            assert o.rank(s) == m.rank(s)
        ground = sorted(m.ground)
        for weights in ({e: rat(1) for e in ground},
                        {e: rat(-e) for e in ground},
                        {e: rat(e % 3) for e in ground}):
            assert greedy_min_basis(o, weights) == greedy_min_basis(m, weights)


def test_element_outside_ground_rejected():
    m = UniformMatroid(frozenset(range(3)), 2)
    with pytest.raises(ValidationError, match=r"elements \[7\] not in ground set"):
        m.is_independent({7})
    with pytest.raises(ValidationError, match=r"elements \[7\] not in ground set"):
        m.contract(7)


def test_enumerate_bases_counts():
    assert len(list(enumerate_bases(UniformMatroid(frozenset(range(6)), 3)))) == 20
    assert len(list(enumerate_bases(k4_matroid()))) == 16  # spanning trees of K4
    assert list(enumerate_bases(UniformMatroid(frozenset(), 0))) == [()]


def test_enumerate_bases_guard():
    """The enumeration has no guard of its own; the oracle bounds how many
    bases it takes.  A 21-element ground set is listed in full, and a
    2,000-element one yields its first basis without the rest."""
    assert len(list(enumerate_bases(UniformMatroid(frozenset(range(21)), 3)))) == 1330
    bases = enumerate_bases(UniformMatroid(frozenset(range(2000)), 3))
    assert next(bases) == (0, 1, 2) and next(bases) == (0, 1, 3)


def _bases_by_definition(matroid):
    """The bases as the full-rank subsets that are independent, in
    lexicographic order: the enumeration's reference."""
    r = matroid.full_rank()
    return [combo for combo in itertools.combinations(sorted(matroid.ground), r)
            if matroid.is_independent(frozenset(combo))]


def _random_matroid(rng, family):
    """A uniform, partition or graphic matroid on at most 10 elements with
    ids drawn from 0..29, ranks, caps and components of every size."""
    ids = rng.sample(range(30), rng.randint(0, 10))
    if family == "uniform":
        return UniformMatroid(frozenset(ids), rng.randint(0, len(ids) + 1))
    if family == "partition":
        cuts = sorted(rng.sample(range(len(ids) + 1), rng.randint(0, min(3, len(ids) + 1))))
        blocks = [ids[a:b] for a, b in itertools.pairwise([0, *cuts, len(ids)])]
        return PartitionMatroid([(frozenset(b), rng.randint(0, len(b) + 1)) for b in blocks])
    n = rng.randint(1, 5)
    edges = {}
    for e in ids:
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if u != v:
            edges[e] = (u, v)
    return GraphicMatroid(range(n), edges)


@pytest.mark.parametrize("family", ["uniform", "partition", "graphic"])
def test_enumerate_bases_equals_the_filtered_combinations(family):
    rng = random.Random(f"bases-{family}")
    for _ in range(150):
        m = _random_matroid(rng, family)
        assert list(enumerate_bases(m)) == _bases_by_definition(m), m.ground


def test_greedy_matches_enumeration_min():
    m = PartitionMatroid([(frozenset({0, 1, 2}), 2), (frozenset({3, 4}), 1)])
    weights = {0: rat(5), 1: rat(2), 2: rat(2), 3: rat(9), 4: rat(1)}
    best = min(enumerate_bases(m), key=lambda b: (sum(weights[e] for e in b), b))
    assert tuple(greedy_min_basis(m, weights)) == best


@given(st.lists(st.integers(0, 20), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_greedy_matches_enumeration_min_k4(ws):
    m = k4_matroid()
    weights = {e: rat(w) for e, w in enumerate(ws)}
    greedy = greedy_min_basis(m, weights)
    best_cost = min(sum(weights[e] for e in b) for b in enumerate_bases(m))
    assert sum(weights[e] for e in greedy) == best_cost


def test_partition_overlapping_parts_rejected():
    with pytest.raises(ValidationError):
        PartitionMatroid([(frozenset({0, 1}), 1), (frozenset({1, 2}), 1)])


class _Id(int):
    """An int subclass, as an id read by a JSON decoder's parse_int may be."""


def test_matroid_from_dict_families():
    u = matroid_from_dict({"family": "uniform", "elements": [3, 1, 2], "rank": 2})
    assert isinstance(u, UniformMatroid) and u.full_rank() == 2
    p = matroid_from_dict(
        {"family": "partition", "parts": [{"elements": [0, 1], "cap": 1}, {"elements": [2], "cap": 1}]}
    )
    assert isinstance(p, PartitionMatroid) and p.full_rank() == 2
    g = matroid_from_dict(
        {"family": "graphic", "nodes": 3,
         "edges": [{"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 1, "v": 2}]}
    )
    assert isinstance(g, GraphicMatroid) and g.full_rank() == 2
    # a bool is not an element id, though it is an int; any other int subclass is
    assert matroid_from_dict({"family": "uniform", "elements": [_Id(3), _Id(1)], "rank": 1}).ground == {1, 3}
    assert matroid_from_dict({"family": "partition", "parts": [{"elements": [_Id(2)], "cap": 1}]}).ground == {2}
    for doc in ({"family": "uniform", "elements": [True, 2], "rank": 1},
                {"family": "partition", "parts": [{"elements": [True, 2], "cap": 1}]}):
        with pytest.raises(ParseError, match="must be a list of integers"):
            matroid_from_dict(doc)
