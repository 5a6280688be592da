"""The solver against the problem as the paper defines it.

The robust recoverable problem picks a first-stage base X, at cost C(X),
and then, once a scenario fixes each second-stage cost anywhere in its
interval [c, c + d], the cheapest base Y with |Y \\ X| <= k.  Its value is

    min over bases X of  C(X) + max over scenarios S of
                         min over bases Y with |Y \\ X| <= k of S(Y).

Costs are non-negative, so each S(Y) grows with S and the maximum over
the box is taken at a corner.  `definition_value` takes it over all 2^m
corners, the scenarios in {c, c + d}^m, rather than assume which one; it
reads `c` and `d` itself and lists the bases as the independent
rank-sized subsets.  It never reads `costs.second`, the one scenario
c + d that the solver and the brute-force oracle reduce the problem to,
so it checks that reduction too.  Instances stay at m <= 7 elements:
2^7 scenarios for each pair of bases.
"""

import itertools
import random
from fractions import Fraction

import pytest

from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance
from rrst.matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from rrst.solver import solve

MAX_ELEMENTS = 7


def definition_value(inst) -> Fraction:
    """The instance's value by the definition, over every extreme scenario."""
    matroid, costs = inst.matroid, inst.costs
    ground = sorted(matroid.ground)
    assert len(ground) <= MAX_ELEMENTS
    bases = [frozenset(combo) for combo in itertools.combinations(ground, inst.rank)
             if matroid.is_independent(combo)]
    # a scenario is the set of elements at their upper cost c + d, as a bit
    # mask over ground; worst[mask] is d summed over the elements in mask
    bit = {e: 1 << i for i, e in enumerate(ground)}
    worst = [sum(costs.d[e] for e in ground if mask & bit[e]) for mask in range(1 << len(ground))]
    low = {Y: sum(costs.c[e] for e in Y) for Y in bases}
    mask_of = {Y: sum(bit[e] for e in Y) for Y in bases}
    best = None
    for X in bases:
        recoveries = [Y for Y in bases if len(Y - X) <= inst.k]
        value = sum(costs.C[e] for e in X) + max(
            min(low[Y] + worst[mask_of[Y] & scenario] for Y in recoveries)
            for scenario in range(len(worst)))
        best = value if best is None else min(best, value)
    return Fraction(best, costs.scale)


def _trees():
    """Seeded connected instances on 3 to 5 nodes with at most 7 edges,
    at every k from 0 to the rank."""
    for seed in range(18):
        n = 3 + seed % 3
        inst = generate_instance(n, 0.5 + seed % 4 / 6, 0, 9, seed)
        if len(inst.costs.C) > MAX_ELEMENTS:
            continue
        for k in range(inst.rank + 1):
            yield f"tree-s{seed}-k{k}", Instance(matroid=inst.matroid, costs=inst.costs, k=k)


def _costs(rng, ids) -> CostColumns:
    return CostColumns.from_rows({e: (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)) for e in ids})


def _matroids():
    """Uniform matroids on 4 to 7 elements and partition matroids of two
    or three parts, each at a random k, with costs drawn from 0..9, and a
    triangle whose costs are not whole."""
    rng = random.Random("definition")
    for m in range(4, MAX_ELEMENTS + 1):
        r = rng.randint(1, m - 1)
        matroid = UniformMatroid(range(m), r)
        yield f"uniform-{m}-{r}", Instance(matroid=matroid, costs=_costs(rng, range(m)), k=rng.randint(0, r))
    for parts in ([(range(3), 1), (range(3, 6), 2)], [(range(2), 1), (range(2, 5), 2), (range(5, 7), 1)]):
        matroid = PartitionMatroid(parts)
        costs = _costs(rng, sorted(matroid.ground))
        yield f"partition-{len(parts)}", Instance(matroid=matroid, costs=costs, k=rng.randint(0, 3))
    # a triangle whose costs are quarters: scale 4
    triples = [(10, 2, 12), (4, 3, 0), (8, 4, 1)]
    costs = CostColumns([0, 1, 2], *map(list, zip(*triples)), 4)
    triangle = GraphicMatroid(range(3), {0: (0, 1), 1: (0, 2), 2: (1, 2)})
    yield "triangle-quarters", Instance(matroid=triangle, costs=costs, k=1)


CASES = dict(itertools.chain(_trees(), _matroids()))


@pytest.mark.parametrize("inst", CASES.values(), ids=CASES.keys())
def test_solve_equals_the_definition(inst):
    assert solve(inst).total == definition_value(inst)

