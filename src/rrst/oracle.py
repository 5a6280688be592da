"""Independent reference answers for small instances.

Everything here is deliberately naive: list the bases, scan all pairs.  The
main solver is never consulted, so agreement between the two routes is
meaningful evidence.

`brute_force` takes any instance and lists the bases of its matroid with
`matroids.enumerate_bases` (a tree instance's bases are its spanning
trees).  The pair scan's own bound is the one guard: the listing stops at
the first basis past it, so a large instance is refused after that many
bases, whatever its family or ground set.  The scan itself is pruned by
cost bounds; the unpruned scan over every pair is the tests' reference
(`tests/reference_pair_scan.py`).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import isqrt

from .errors import InternalError, TooLarge
from .instance import Instance
from .matroids import enumerate_bases
from .rational import Rat, rat

PAIR_SCAN_LIMIT = 5_000_000


class BruteResult(namedtuple("BruteResult", "X Y Z first_stage second_stage total pairs_scanned")):
    __slots__ = ()
    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]
    first_stage: Rat
    second_stage: Rat
    total: Rat
    pairs_scanned: int


def _pair_scan(selections, costs, scale: int, overlap_required: int) -> BruteResult:
    first_cost, second_cost = costs.C.__getitem__, costs.second.__getitem__
    rated = [(sel, frozenset(sel), sum(map(first_cost, sel)), sum(map(second_cost, sel)))
             for sel in selections]
    if not rated:
        # every matroid has a basis
        raise InternalError("no basis was enumerated")
    min_second = min(r[3] for r in rated)
    by_first = sorted(rated, key=lambda r: (r[2], r[0]))
    by_second = sorted(rated, key=lambda r: (r[3], r[0]))

    best = None
    scanned = 0
    for x_sel, x_set, first, _ in by_first:
        # strict bounds keep the pruned argmin identical to the full scan's
        if best is not None and first + min_second > best[0]:
            break
        for y_sel, y_set, _, second in by_second:
            total = first + second
            if best is not None and total > best[0]:
                break
            scanned += 1
            if len(x_set & y_set) < overlap_required:
                continue
            key = (total, x_sel, y_sel)
            if best is None or key < best:
                best = key
    if best is None:
        # X = Y meets any overlap up to the rank
        raise InternalError("no basis pair meets the overlap requirement")
    total, x_sel, y_sel = best
    z = tuple(sorted(set(x_sel) & set(y_sel))[:overlap_required])
    first = sum(map(first_cost, x_sel))
    second = sum(map(second_cost, y_sel))
    return BruteResult(x_sel, y_sel, z, rat(first, scale), rat(second, scale), rat(total, scale), scanned)


def brute_force(instance: Instance) -> BruteResult:
    """Optimal basis pair by explicit enumeration and a pruned pair scan
    (reference route).  Ties go to the least (total, X, Y).

    Raises TooLarge once the bases outnumber the square root of
    PAIR_SCAN_LIMIT, having listed one basis past it.
    """
    bound = isqrt(PAIR_SCAN_LIMIT) + 1  # the fewest bases whose pairs exceed the limit
    bases = list(islice(enumerate_bases(instance.matroid), bound))
    if len(bases) == bound:
        raise TooLarge(f"over {bound - 1} bases: their pairs exceed {PAIR_SCAN_LIMIT}")
    return _pair_scan(bases, instance.costs, instance.scale, instance.overlap_requirement)
