"""Matroid families: axioms, minors, greedy optimality, enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrst.errors import ElementNotInGround, GroundTooLarge, ValidationError
from rrst.matroids import (
    GenericOracleMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    enumerate_bases,
    greedy_min_basis,
    matroid_from_dict,
)
from rrst.multigraph import MultiGraph
from rrst.rational import rat


def k4_matroid():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return GraphicMatroid(MultiGraph(range(4), dict(enumerate(pairs))))


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


@given(st.integers(2, 5), st.integers(0, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_minors_preserve_axioms(n, r, data):
    m = UniformMatroid(frozenset(range(n)), min(r, n))
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


def test_contract_rank_identity():
    # rank in M/e of S equals rank_M(S + e) - rank_M(e) for non-loops
    m = k4_matroid()
    for e in sorted(m.ground):
        mc = m.contract(e)
        for s in subsets(mc.ground, 3):
            assert mc.rank(s) == m.rank(set(s) | {e}) - m.rank({e})


def test_delete_preserves_independence():
    m = k4_matroid()
    md = m.delete(5)
    for s in subsets(md.ground):
        assert md.is_independent(s) == m.is_independent(s)


def test_graphic_contraction_creates_loops():
    g = MultiGraph(range(3), {0: (0, 1), 1: (0, 1), 2: (1, 2)})
    m = GraphicMatroid(g)
    mc = m.contract(0)
    # edge 1 became a loop: dependent on its own, but still in the ground set
    assert 1 in mc.ground
    assert not mc.is_independent({1})
    assert mc.is_independent({2})
    assert mc.full_rank() == 1


def test_generic_oracle_matches_graphic():
    # the graphic rank and minimum basis are Kruskal scans; the oracle
    # adapter reaches them by the generic greedy over independence calls
    m = k4_matroid()
    o = GenericOracleMatroid(m.ground, m.is_independent)
    minors = [
        (m, o),
        (m.contract(0).delete(3), o.contract(0).delete(3)),
        # edge 3 is parallel to edge 1 once 0 is contracted: a loop after 1
        (m.contract(0).contract(1), o.contract(0).contract(1)),
    ]
    assert minors[2][0].loops == {3}
    for mm, oo in minors:
        assert mm.ground == oo.ground
        for s in subsets(mm.ground):
            assert oo.is_independent(s) == mm.is_independent(s)
            assert oo.rank(s) == mm.rank(s)
        ground = sorted(mm.ground)
        for weights in ({e: rat(1) for e in ground},
                        {e: rat(-e) for e in ground},
                        {e: rat(e % 3) for e in ground}):
            assert greedy_min_basis(oo, weights) == greedy_min_basis(mm, weights)


def test_element_outside_ground_rejected():
    m = UniformMatroid(frozenset(range(3)), 2)
    with pytest.raises(ElementNotInGround):
        m.is_independent({7})
    with pytest.raises(ElementNotInGround):
        m.contract(7)


def test_enumerate_bases_counts():
    assert len(enumerate_bases(UniformMatroid(frozenset(range(6)), 3))) == 20
    assert len(enumerate_bases(k4_matroid())) == 16  # spanning trees of K4
    assert enumerate_bases(UniformMatroid(frozenset(), 0)) == [()]


def test_enumerate_bases_guard():
    with pytest.raises(GroundTooLarge):
        enumerate_bases(UniformMatroid(frozenset(range(21)), 2))


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
