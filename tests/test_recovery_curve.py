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
brute-force oracle cannot reach.
"""

import dataclasses
import random

import pytest

from rrst.gen import generate_instance
from rrst.instance import CostColumns, Instance
from rrst.matroids import PartitionMatroid, UniformMatroid
from rrst.sides import GraphSide, MatroidSide
from rrst.solver import solution_to_dict, solve, verify_solution


def _greedy_cost(side, weights):
    return sum(map(weights.__getitem__, side.complete_min(weights)))


def _check_curve(instance, side):
    """Solve `instance` at every k in 0..rank and check the curve."""
    C, second = instance.costs.C, instance.costs.second
    both = {e: C[e] + second[e] for e in C}
    totals = []
    for k in range(instance.rank + 1):
        at_k = dataclasses.replace(instance, k=k)
        sol = solve(at_k)
        assert verify_solution(at_k, solution_to_dict(sol)) == [], k
        totals.append(sol.total * instance.scale)
    assert totals[0] == _greedy_cost(side, both)
    assert totals[-1] == _greedy_cost(side, C) + _greedy_cost(side, second)
    steps = [b - a for a, b in zip(totals, totals[1:])]
    assert all(step <= 0 for step in steps), totals
    assert all(a <= b for a, b in zip(steps, steps[1:])), totals


@pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (18, 1), (18, 2)])
def test_tree_recovery_curve(n, seed):
    inst = generate_instance(n, 0.3, 0, 20, seed)
    assert inst.rank == n - 1
    _check_curve(inst, GraphSide(inst.matroid.graph))


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
    _check_curve(minst, MatroidSide(matroid))
