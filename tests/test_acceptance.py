"""Acceptance gate: every release criterion, one verdict line per criterion.

The shared corpus (built once per session) covers:

* trees    - the full built-in small suite (every connected graph on <= 5
             nodes, three cost patterns, every recovery budget) plus 200
             seeded random instances on 4-6 nodes;
* matroids - uniform and partition matroids with ground size <= 10 across
             100 seeded cost draws and every budget, plus tree instances
             read back from their graphic-matroid documents.

Every corpus instance is solved once (and once more for byte determinism),
so the criteria can audit the overlap, LP bound tightness, the iteration
count and determinism without re-solving.  The solver itself raises when
the vertex it reads is not 0/1.  The solution documents of all these solves
are also held to a golden digest, so a refactor that changes any output
byte fails.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import pytest

from rrst.errors import InternalError, RRSTError
from rrst.gen import builtin_small_suite, generate_instance
from rrst.instance import CostColumns, Instance
from rrst.matroids import PartitionMatroid, UniformMatroid
from rrst.multigraph import MultiGraph
from rrst.oracle import brute_force
from rrst.rational import rat
from rrst.separation import separate_forest
from rrst.sides import GraphSide
from rrst.solver import serialize_solution, solution_to_dict, solve, verify_solution

from conftest import ACCEPTANCE_LINES, cleared, cut_nodes, graphic_twin, violation
from reference_separation import separate_forest_exhaustive

ZERO = rat(0)

# sha256 over the serialized solution of every corpus solve, in corpus
# order: tree runs, matroid runs, then each graphic case read from its tree
# document and from its graphic-matroid document
GOLDEN_DIGEST = "0417dd60442bc70f9f84fda4e4b7f3ca1bc7bc8c03f9a8d4b7051b6a103994b2"


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@dataclass
class Run:
    name: str
    text: str  # serialized solution, "" when the solve raised
    total: object
    lp_bound: object
    iterations: int
    oracle_total: object
    bytes_stable: bool
    overlap_ok: bool  # Z has the required size and lies in X and in Y
    raised: str | None  # the error a solve raised, if any


@dataclass
class GraphicRun:
    name: str
    instance: object
    minstance: object
    tree_sol: object
    basis_sol: object
    oracle_total: object


@dataclass
class Corpus:
    tree_runs: list[Run] = field(default_factory=list)
    matroid_runs: list[Run] = field(default_factory=list)
    graphic_runs: list[GraphicRun] = field(default_factory=list)
    tree_seconds: float = 0.0
    matroid_seconds: float = 0.0

    @property
    def all_runs(self):
        return self.tree_runs + self.matroid_runs


def _run_case(name, instance) -> Run:
    try:
        sol = solve(instance)
    except RRSTError as exc:
        sol, raised = None, f"{type(exc).__name__}: {exc}"
    else:
        raised = None
    ref = brute_force(instance)
    text = "" if sol is None else serialize_solution(sol)
    need = instance.overlap_requirement
    return Run(
        name=name,
        text=text,
        total=None if sol is None else sol.total,
        lp_bound=None if sol is None else sol.lp_bound,
        iterations=0 if sol is None else sol.iterations,
        oracle_total=ref.total,
        bytes_stable=sol is not None and text == serialize_solution(solve(instance)),
        overlap_ok=sol is not None and len(sol.Z) == need and set(sol.Z) <= set(sol.X) & set(sol.Y),
        raised=raised,
    )


def _seeded_tree_instances():
    densities = [0.3, 0.5, 0.8, 1.0]
    for i in range(200):
        n = 4 + i % 3
        seed = 1000 + i
        k = seed % n
        inst = generate_instance(n, densities[i % 4], k, 12, seed)
        yield f"seed{seed}-n{n}-k{k}", inst


def _matroid_rotation():
    u = [(4, 2), (6, 3), (7, 3), (8, 4), (10, 5)]
    p = [
        [((0, 1, 2), 1), ((3, 4, 5), 2), ((6, 7, 8, 9), 2)],
        [((0, 1, 2, 3, 4), 2), ((5, 6, 7, 8, 9), 3)],
        [((0, 1), 1), ((2, 3), 1), ((4, 5), 1)],
        [((0, 1, 2, 3), 3), ((4, 5, 6), 1)],
    ]
    mats = [UniformMatroid(frozenset(range(m)), r) for m, r in u]
    mats += [PartitionMatroid([(frozenset(e), c) for e, c in parts]) for parts in p]
    return mats


def _matroid_cases():
    mats = _matroid_rotation()
    for i in range(100):
        matroid = mats[i % len(mats)]
        rng = random.Random(9000 + i)
        costs = CostColumns.from_rows({
            e: (rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 12))
            for e in sorted(matroid.ground)
        })
        rank = matroid.full_rank()
        for k in range(rank + 1):
            yield f"draw{i}-{matroid.family}-k{k}", Instance(matroid=matroid, costs=costs, k=k, scale=1)


def _graphic_matroid_cases():
    for i in range(30):
        inst = generate_instance(5, 0.6, i % 5, 10, 7000 + i)
        yield f"graphic{7000 + i}", inst, graphic_twin(inst)


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    c = Corpus()
    t0 = time.perf_counter()
    for name, inst in [*builtin_small_suite(), *_seeded_tree_instances()]:
        c.tree_runs.append(_run_case(name, inst))
    c.tree_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for name, mi in _matroid_cases():
        c.matroid_runs.append(_run_case(name, mi))
    c.matroid_seconds = time.perf_counter() - t0

    for name, inst, mi in _graphic_matroid_cases():
        c.graphic_runs.append(GraphicRun(
            name, inst, mi, solve(inst), solve(mi),
            brute_force(mi).total,
        ))
    return c


def test_criterion_1_tree_solver_matches_oracle(corpus):
    bad = [r.name for r in corpus.tree_runs if r.total != r.oracle_total]
    ok = not bad and corpus.tree_seconds < 300
    _verdict(
        1, ok,
        f"tree corpus {len(corpus.tree_runs)} instances (built-in suite + 200 seeded), "
        f"{len(bad)} disagreements, {corpus.tree_seconds:.1f}s"
        + (f"; first failures {bad[:5]}" if bad else ""),
    )


def test_criterion_2_matroid_solver_matches_oracle(corpus):
    bad = [r.name for r in corpus.matroid_runs if r.total != r.oracle_total]
    graphic_bad = []
    for g in corpus.graphic_runs:
        # a tree document and its graphic-matroid document read into the
        # same instance, so both must print the same document, at the
        # oracle's optimum
        if not (
            serialize_solution(g.tree_sol) == serialize_solution(g.basis_sol)
            and g.tree_sol.total == g.oracle_total
            and verify_solution(g.instance, solution_to_dict(g.tree_sol)) == []
            and verify_solution(g.minstance, solution_to_dict(g.basis_sol)) == []
        ):
            graphic_bad.append(g.name)
    ok = not bad and not graphic_bad and corpus.matroid_seconds < 300
    _verdict(
        2, ok,
        f"matroid corpus {len(corpus.matroid_runs)} instances (uniform+partition, "
        f"ground<=10, every budget) + 30 graphic cross-checks from both documents, "
        f"{len(bad) + len(graphic_bad)} disagreements, {corpus.matroid_seconds:.1f}s",
    )


def test_criterion_3_lp_bound_is_tight(corpus):
    bad = [r.name for r in corpus.all_runs if r.total != r.lp_bound]
    _verdict(
        3, not bad,
        f"lp_bound == optimum on {len(corpus.all_runs)} instances"
        + (f"; failures {bad[:5]}" if bad else ""),
    )


def test_criterion_4_overlap_bookkeeping_invariant(corpus):
    bad = [r.name for r in corpus.all_runs if not r.overlap_ok]
    _verdict(
        4, not bad,
        f"|Z| == required overlap and Z inside X and Y at exit; "
        f"{len(bad)} violations across {len(corpus.all_runs)} solves"
        + (f"; first {bad[:5]}" if bad else ""),
    )


def test_criterion_5_vertices_always_round(corpus):
    # the solver raises InternalError on a vertex with a coordinate
    # strictly between 0 and 1, so a clean run means every vertex was 0/1
    raised = [f"{r.name}: {r.raised}" for r in corpus.all_runs if r.raised]
    _verdict(
        5, not raised,
        f"no corpus solve raised, so every LP vertex read was 0/1; "
        f"{len(raised)} raised across {len(corpus.all_runs)} solves"
        + (f"; first {raised[:3]}" if raised else ""),
    )


def test_criterion_6_iteration_bound(corpus):
    over = [r.name for r in corpus.all_runs if r.iterations > 1]
    lp_solves = sum(r.iterations for r in corpus.all_runs)
    _verdict(
        6, not over,
        f"iterations <= 1 on all {len(corpus.all_runs)} solves "
        f"({lp_solves} solved an LP)"
        + (f"; over {over[:5]}" if over else ""),
    )


def test_criterion_7_separation_routes_agree():
    rng = random.Random(20260815)
    values = [ZERO, rat(1, 4), rat(1, 3), rat(1, 2), rat(2, 3), rat(3, 4),
              rat(1), rat(5, 4), rat(3, 2), rat(2)]
    pairs_checked = 0
    mismatches = []
    for trial in range(500):
        n = rng.randint(3, 8)
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = [p for p in all_pairs if rng.random() < 0.6]
        g = MultiGraph(range(n), dict(enumerate(chosen)))
        if not g.is_connected():
            continue
        point = {e: rng.choice(values) for e in g.edges}
        total = sum(point.values(), ZERO)
        if total > n - 1:
            # the min-cut route takes only points with x(E) <= n - 1, as
            # the relaxation's are; check it refuses this one, then scale
            # the point down onto n - 1
            try:
                separate_forest(*cleared(point), g)
                mismatches.append(trial)
            except InternalError:
                pass
            point = {e: v * (n - 1) / total for e, v in point.items()}
        fast = separate_forest(*cleared(point), g)
        slow = separate_forest_exhaustive(*cleared(point), g)
        pairs_checked += 1
        if (fast is None) != (slow is None):
            mismatches.append(trial)
            continue
        for cut in (fast, slow):
            if cut is None:
                continue
            nodes = cut_nodes(cut, g)
            if not (
                violation(cut, point) > 0
                and cut[0] == tuple(g.edges_within(nodes))
                and cut[1] == len(nodes) - 1
            ):
                mismatches.append(trial)
                break
    _verdict(
        7, not mismatches and pairs_checked >= 300,
        f"min-cut vs exhaustive verdicts agree with valid certificates on "
        f"{pairs_checked} random fractional points ({len(mismatches)} mismatches)",
    )


def test_criterion_8_analytic_extremes():
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        n = 10 + i % 21  # 10..30
        inst0 = generate_instance(n, 0.3, 0, 30, 5000 + i)
        sol0 = solve(inst0)
        side = GraphSide(inst0.matroid.graph)
        both = {e: C + inst0.costs.second[e] for e, C in inst0.costs.C.items()}
        mst_both = side.complete_min(both)
        weight_both = sum((both[e] for e in mst_both), ZERO)
        if not (sol0.total == weight_both and sol0.X == sol0.Y and sol0.Z == sol0.X):
            failures.append(f"k=0 seed {5000 + i}")

        instf = generate_instance(n, 0.3, n - 1, 30, 5000 + i)
        solf = solve(instf)
        mst_first = side.complete_min(instf.costs.C)
        mst_second = side.complete_min(instf.costs.second)
        w1 = sum((instf.costs.C[e] for e in mst_first), ZERO)
        w2 = sum((instf.costs.second[e] for e in mst_second), ZERO)
        if not (solf.first_stage == w1 and solf.second_stage == w2 and solf.Z == ()):
            failures.append(f"k=n-1 seed {5000 + i}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    _verdict(
        8, ok,
        f"zero-budget solves equal the combined-cost minimum tree and free-budget "
        f"solves split into two independent minimum trees on 100 seeds each "
        f"(n up to 30), {elapsed:.1f}s"
        + (f"; failures {failures[:4]}" if failures else ""),
    )


def test_criterion_9_determinism_and_mode_equivalence(corpus):
    unstable = [r.name for r in corpus.all_runs if not r.bytes_stable]
    _verdict(
        9, not unstable,
        f"repeat solves byte-identical on {len(corpus.all_runs)} instances"
        + (f"; unstable {unstable[:3]}" if unstable else ""),
    )


def test_solution_documents_match_golden_digest(corpus):
    digest = hashlib.sha256()
    for r in corpus.all_runs:
        digest.update(r.text.encode())
    for g in corpus.graphic_runs:
        digest.update(serialize_solution(g.tree_sol).encode())
        digest.update(serialize_solution(g.basis_sol).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
