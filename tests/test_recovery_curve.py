"""The recovery curve: the optimum as a function of the budget k.

Each curve fixes one instance's structure and costs and solves every k
from 0 to the selection size r.  Its two ends need no LP: at k = 0 both
stages are one minimum selection under C + (c+d), and at k = r they are
two independent minimum selections, under C and under c+d.  In between a
larger k only relaxes the overlap row, so the curve never rises, and the
optimum is a minimum-cost common independent set of size r + k of two
matroids (see solver.py), whose cost is convex in its size (successive
shortest augmenting paths; Schrijver, Combinatorial Optimization,
ch. 41).  A solve that is feasible but too dear at one interior k lies
above the chord of its neighbours and breaks convexity, at sizes the
brute-force oracle cannot reach.  Every point is also checked against
`reference_curve`, which reads the whole curve off one run of weighted
matroid intersection, with no LP.
"""

import random

import pytest

from reference_curve import recovery_curve
from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance
from rrst.matroids import PartitionMatroid, UniformMatroid, greedy_min_basis
from rrst.solver import solution_to_dict, solve, verify_solution


def _greedy_cost(matroid, weights):
    return sum(map(weights.__getitem__, greedy_min_basis(matroid, weights)))


def _check_curve(instance):
    """Solve `instance` at every k in 0..rank and check the curve."""
    matroid = instance.matroid
    C, second = instance.costs.C, instance.costs.second
    both = {e: C[e] + second[e] for e in C}
    totals = []
    for k in range(instance.rank + 1):
        at_k = Instance(instance.matroid, instance.costs, k, instance.scale)
        sol = solve(at_k)
        assert verify_solution(at_k, solution_to_dict(sol)) == [], k
        totals.append(sol.total * instance.scale)
    assert totals == recovery_curve(instance)
    assert totals[0] == _greedy_cost(matroid, both)
    assert totals[-1] == _greedy_cost(matroid, C) + _greedy_cost(matroid, second)
    steps = [b - a for a, b in zip(totals, totals[1:])]
    assert all(step <= 0 for step in steps), totals
    assert all(a <= b for a, b in zip(steps, steps[1:])), totals


@pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (18, 1), (18, 2)])
def test_tree_recovery_curve(n, seed):
    inst = generate_instance(n, 0.3, 0, 20, seed)
    assert inst.rank == n - 1
    _check_curve(inst)


def _random_costs(ground, seed):
    rng = random.Random(seed)
    return CostColumns.from_rows({e: (rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20))
                                  for e in sorted(ground)})


MATROIDS = {
    "uniform-30": UniformMatroid(frozenset(range(30)), 15),
    "partition-24": PartitionMatroid([
        (frozenset(range(0, 8)), 4),
        (frozenset(range(8, 16)), 3),
        (frozenset(range(16, 24)), 2),
    ]),
}


@pytest.mark.parametrize("name", MATROIDS)
def test_matroid_recovery_curve(name):
    matroid = MATROIDS[name]
    minst = Instance(matroid=matroid, costs=_random_costs(matroid.ground, 5), k=0, scale=1)
    _check_curve(minst)


def _random_matroid(rng):
    """A uniform or a partition matroid of at most 24 elements, with a
    rank or a cap of 0 now and then."""
    if rng.random() < 0.5:
        m = rng.randint(1, 24)
        return UniformMatroid(frozenset(range(m)), rng.randint(0, m))
    parts, start = [], 0
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 6)
        parts.append((frozenset(range(start, start + size)), rng.randint(0, size)))
        start += size
    return PartitionMatroid(parts)


@pytest.mark.parametrize("seed", range(30))
def test_random_matroid_curve_matches_the_reference(seed):
    matroid = _random_matroid(random.Random(seed))
    _check_curve(Instance(matroid=matroid, costs=_random_costs(matroid.ground, seed), k=0, scale=1))


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (10, 11, 12) for seed in (1, 2)])
def test_mid_k_tree_curve_matches_the_reference(n, seed):
    inst = generate_instance(n, 0.3, n // 2, 20, seed)
    _check_curve(inst)
