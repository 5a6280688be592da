"""The definition-level reference for the oracle's pair scan.

`rrst.oracle.brute_force` scans basis pairs in cost order and stops once
no pair left can beat the best; `full_pair_scan` checks every pair of
bases instead, so it defines what the pruned scan must find: the least
(total, X, Y) over the pairs that share at least the overlap the
instance requires, with Z the smallest ids they share.  It lists every
basis with no bound, so it takes only small instances.
"""

from rrst.matroids import enumerate_bases
from rrst.oracle import BruteResult
from rrst.rational import rat


def full_pair_scan(instance) -> BruteResult:
    """The optimal basis pair of `instance`, with `pairs_scanned` the
    number of all ordered pairs of bases."""
    first_cost, second_cost = instance.costs.C, instance.costs.second
    need, scale = instance.overlap_requirement, instance.scale
    bases = list(enumerate_bases(instance.matroid))
    total, X, Y = min(
        (sum(first_cost[e] for e in x) + sum(second_cost[e] for e in y), x, y)
        for x in bases for y in bases if len(set(x) & set(y)) >= need)
    first = sum(first_cost[e] for e in X)
    Z = tuple(sorted(set(X) & set(Y))[:need])
    return BruteResult(X, Y, Z, rat(first, scale), rat(total - first, scale), rat(total, scale),
                       len(bases) ** 2)
