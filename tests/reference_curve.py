"""Reference route for the recovery curve: weighted matroid intersection by
successive shortest augmenting paths (Schrijver, Combinatorial
Optimization, ch. 41), with no LP.

A pair (X, Y) of bases of a matroid M of rank r that share at least
r - k elements is a common independent set of size r + k of two matroids
on three copies a_e, b_e and c_e of each element e (see solver.py):

* N1 is M on a ∪ b, with a_e parallel to b_e, plus c free;
* N2 is a free, plus M on b ∪ c, with b_e parallel to c_e.

X is read off a ∪ b, Y off b ∪ c and the overlap off b.  The weights are
C - W on a, C + (c+d) - 2W on b and (c+d) - W on c, with W past the sum of
all costs, so a set of least weight among those of size r + k lies on
both faces |S ∩ (a ∪ b)| = r = |S ∩ (b ∪ c)|, and its weight plus 2rW is
the optimum at budget k.

The only sets of size r on both faces lie in b, so b holding a minimum
basis under C + (c+d) is the extreme set of size r (k = 0).  Augmenting
along a shortest path of the exchange graph, with the fewest arcs among
the shortest, keeps a set extreme one size up, so one run of r
augmentations gives the optimum at every k.  The exchange arcs come from
fundamental circuits, found with the matroid's independence test alone,
and the path lengths from a queue-based Bellman-Ford.  Nothing here calls
the solver: it takes an `Instance` and asks its matroid only
`is_independent`.
"""

from collections import deque

A, B, C = 0, 1, 2  # the three copies; a node is (copy, element)


def _circuits(matroid, S, carried):
    """The exchange data of S in the matroid N that puts `matroid` on the
    two copies `carried`, one parallel to the other, and leaves the third
    copy free: each node x outside S maps to None when S + x is
    independent in N, else to the nodes y of S with S - y + x independent
    in N, the fundamental circuit of x less x itself."""
    held = {e: (copy, e) for copy, e in S if copy in carried}  # element -> its node in S
    base = set(held)
    circuit = {}  # element -> its circuit in `base`, None if base + e is independent
    for e in matroid.ground - base:
        if matroid.is_independent(base | {e}):
            circuit[e] = None
        else:
            circuit[e] = [held[f] for f in sorted(base) if matroid.is_independent(base - {f} | {e})]
    out = {}
    for copy in (A, B, C):
        for e in matroid.ground:
            x = (copy, e)
            if x in S:
                continue
            if copy not in carried:
                out[x] = None
            elif e in held:
                out[x] = [held[e]]  # the other copy of e
            else:
                out[x] = circuit[e]
    return out


def _augment(matroid, S, length):
    """S grown by one along a shortest path, by `length` then by arcs,
    from a node N1 takes to a node N2 takes; ties go to the least end."""
    into1, into2 = _circuits(matroid, S, (A, B)), _circuits(matroid, S, (B, C))
    arcs = {x: [] for x in length}
    for x, ys in into1.items():
        for y in ys or ():
            arcs[y].append(x)  # S - y + x is independent in N1
    for x, ys in into2.items():
        arcs[x].extend(ys or ())  # S - y + x is independent in N2
    sources = sorted(x for x, ys in into1.items() if ys is None)
    dist = {x: (length[x], 0) for x in sources}
    pred = dict.fromkeys(sources)
    queue, queued = deque(sources), set(sources)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        du, hops = dist[u]
        for v in arcs[u]:
            dv = (du + length[v], hops + 1)
            if v not in dist or dv < dist[v]:
                dist[v], pred[v] = dv, u
                if v not in queued:
                    queue.append(v)
                    queued.add(v)
    ends = [x for x, ys in into2.items() if ys is None and x in dist]
    assert ends, "no augmenting path: the two matroids share no larger independent set"
    node = min(ends, key=lambda x: (dist[x], x))
    path = []
    while node is not None:
        path.append(node)
        node = pred[node]
        assert len(path) <= len(length), "the predecessors close a cycle"
    return S.symmetric_difference(path)


def recovery_curve(instance):
    """The optimum at every budget k = 0..rank, in units of 1/scale of the
    instance, from one run."""
    matroid, r = instance.matroid, instance.rank
    first, second = instance.costs.C, instance.costs.second
    W = 2 * sum(first[e] + second[e] for e in matroid.ground) + 1
    weight = {}
    for e in matroid.ground:
        weight[A, e] = first[e] - W
        weight[B, e] = first[e] + second[e] - 2 * W
        weight[C, e] = second[e] - W
    # the greedy scan: a minimum basis under C + (c+d), ties by id
    basis = set()
    for e in sorted(matroid.ground, key=lambda e: (first[e] + second[e], e)):
        if matroid.is_independent(basis | {e}):
            basis.add(e)
    S = {(B, e) for e in basis}
    curve = [sum(map(weight.__getitem__, S)) + 2 * r * W]
    for _ in range(r):
        length = {x: -w if x in S else w for x, w in weight.items()}
        S = _augment(matroid, S, length)
        curve.append(sum(map(weight.__getitem__, S)) + 2 * r * W)
    return curve
