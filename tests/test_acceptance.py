"""Acceptance gate: every release criterion, one verdict line per criterion.

The shared corpus (built once per session) covers:

* trees    - the full built-in small suite (every connected graph on <= 5
             nodes, three cost patterns, every recovery budget) plus 200
             seeded random instances on 4-6 nodes;
* matroids - uniform and partition matroids with ground size <= 10 across
             100 seeded cost draws and every budget, plus graphic matroids
             cross-checked against the tree route.

Every solve runs fully instrumented so the criteria can audit iteration
bookkeeping, rounding integrality, LP bound tightness, and determinism
without re-solving.  The solution documents of all these solves are also
held to a golden digest, so a refactor that changes any output byte fails.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

import pytest

from rrst.config import SolveConfig
from rrst.errors import NoIntegralCoordinate
from rrst.gen import builtin_small_suite, generate_instance
from rrst.instance import CostTriple
from rrst.matroids import (
    GraphicMatroid,
    MatroidInstance,
    PartitionMatroid,
    UniformMatroid,
)
from rrst.multigraph import MultiGraph
from rrst.oracle import brute_force_rrmb, brute_force_rrst
from rrst.rational import ZERO, rat
from rrst.separation import separate_forest, separate_forest_exhaustive
from rrst.sides import GraphSide
from rrst.solver import (
    serialize_solution,
    solution_to_dict,
    solve_rrmb,
    solve_rrst,
    verify_basis_solution,
    verify_tree_solution,
)

from conftest import ACCEPTANCE_LINES

BATCH = SolveConfig(mode="batch")
STRICT = SolveConfig(mode="strict")

ITERATION_BOUND_FACTOR = 4

# sha256 over the serialized solution of every corpus solve, in corpus
# order: tree runs, matroid runs, then each graphic case by the tree route
# and by the matroid route
GOLDEN_DIGEST = "23136477beb2dcbab1cf336311e3be53d210120557877513f0a44800dedfed33"


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@dataclass
class Run:
    name: str
    units: int  # node count for trees, ground size for matroids
    text: str  # serialized solution, "" when the solve stalled
    total: object
    lp_bound: object
    iterations: int
    oracle_total: object
    strict_total: object
    bytes_stable: bool
    invariant_violations: int
    rounding_failures: int
    stalled: bool


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


def _audit(solver, instance, need: int):
    """Solve with full instrumentation; returns stats pieces."""
    infos = []
    stalled = False
    try:
        sol = solver(instance, BATCH, on_iteration=infos.append)
    except NoIntegralCoordinate:
        return None, 1, 1, True
    invariant_violations = 0
    rounding_failures = 0
    for info in infos:
        if info.quota < 0 or info.quota + len(info.Z) != need:
            invariant_violations += 1
        if not info.Z <= (info.X & info.Y):
            invariant_violations += 1
    if len(sol.Z) != need or not set(sol.Z) <= (set(sol.X) & set(sol.Y)):
        invariant_violations += 1
    for info in infos:
        model = info.model
        both_active = (
            model.x_side is not None and model.x_side.is_active()
            and model.y_side is not None and model.y_side.is_active()
        )
        dropped = info.dropped_overlap or info.dropped_x or info.dropped_y
        if both_active and not dropped and not (info.ones_x or info.ones_y):
            rounding_failures += 1
    return sol, invariant_violations, rounding_failures, stalled


def _run_case(name, units, instance, solver, reference) -> Run:
    sol, inv, rnd, stalled = _audit(solver, instance, instance.overlap_requirement)
    ref = reference(instance, prune=True)
    strict_sol = solver(instance, STRICT)
    text = "" if sol is None else serialize_solution(sol)
    stable = sol is not None and text == serialize_solution(solver(instance, BATCH))
    return Run(
        name=name,
        units=units,
        text=text,
        total=None if sol is None else sol.total,
        lp_bound=None if sol is None else sol.lp_bound,
        iterations=0 if sol is None else sol.iterations,
        oracle_total=ref.total,
        strict_total=strict_sol.total,
        bytes_stable=stable,
        invariant_violations=inv,
        rounding_failures=rnd,
        stalled=stalled,
    )


def _seeded_tree_instances():
    densities = [0.3, 0.5, 0.8, 1.0]
    for i in range(200):
        n = 4 + i % 3
        seed = 1000 + i
        k = seed % n
        inst = generate_instance(n, densities[i % 4], k, 12, seed)
        yield f"seed{seed}-n{n}-k{k}", n, inst


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
        costs = {
            e: CostTriple(rat(rng.randint(0, 12)), rat(rng.randint(0, 12)), rat(rng.randint(0, 12)))
            for e in sorted(matroid.ground)
        }
        rank = matroid.full_rank()
        for k in range(rank + 1):
            yield (
                f"draw{i}-{matroid.family}-k{k}",
                len(matroid.ground),
                MatroidInstance(matroid=matroid, costs=dict(costs), k=k),
            )


def _graphic_matroid_cases():
    for i in range(30):
        inst = generate_instance(5, 0.6, i % 5, 10, 7000 + i)
        mi = MatroidInstance(matroid=GraphicMatroid(inst.graph), costs=inst.costs, k=inst.k)
        yield f"graphic{7000 + i}", inst, mi


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    c = Corpus()
    t0 = time.perf_counter()
    for name, inst in builtin_small_suite():
        c.tree_runs.append(_run_case(name, inst.n, inst, solve_rrst, brute_force_rrst))
    for name, n, inst in _seeded_tree_instances():
        c.tree_runs.append(_run_case(name, n, inst, solve_rrst, brute_force_rrst))
    c.tree_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for name, units, mi in _matroid_cases():
        c.matroid_runs.append(_run_case(name, units, mi, solve_rrmb, brute_force_rrmb))
    c.matroid_seconds = time.perf_counter() - t0

    for name, inst, mi in _graphic_matroid_cases():
        c.graphic_runs.append(GraphicRun(
            name, inst, mi, solve_rrst(inst, BATCH), solve_rrmb(mi, BATCH),
            brute_force_rrmb(mi, prune=True).total,
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
        # the two routes may pick different optima among ties; the value and
        # the validity of both certificates are what must coincide
        if not (
            g.tree_sol.total == g.basis_sol.total == g.oracle_total
            and verify_tree_solution(g.instance, solution_to_dict(g.tree_sol)) == []
            and verify_basis_solution(g.minstance, solution_to_dict(g.basis_sol)) == []
        ):
            graphic_bad.append(g.name)
    ok = not bad and not graphic_bad and corpus.matroid_seconds < 300
    _verdict(
        2, ok,
        f"matroid corpus {len(corpus.matroid_runs)} instances (uniform+partition, "
        f"ground<=10, every budget) + 30 graphic cross-checks, "
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
    violations = sum(r.invariant_violations for r in corpus.all_runs)
    _verdict(
        4, violations == 0,
        f"quota + banked == required overlap at every iteration and at exit; "
        f"{violations} violations across {len(corpus.all_runs)} solves",
    )


def test_criterion_5_vertices_always_round(corpus):
    failures = sum(r.rounding_failures for r in corpus.all_runs)
    stalls = sum(1 for r in corpus.all_runs if r.stalled)
    _verdict(
        5, failures == 0 and stalls == 0,
        f"every zero-free vertex with both stages active carried a 1-coordinate; "
        f"{failures} misses, {stalls} stalls",
    )


def test_criterion_6_iteration_bound(corpus):
    over = [r.name for r in corpus.all_runs if r.iterations > ITERATION_BOUND_FACTOR * r.units]
    worst = max(
        (r.iterations / r.units for r in corpus.all_runs if r.units), default=0.0
    )
    _verdict(
        6, not over,
        f"iterations <= {ITERATION_BOUND_FACTOR}*n on all {len(corpus.all_runs)} solves; "
        f"max observed iterations/n = {worst:.3f}",
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
        fast = separate_forest(point, g)
        slow = separate_forest_exhaustive(point, g)
        pairs_checked += 1
        if (fast is None) != (slow is None):
            mismatches.append(trial)
            continue
        for cut in (fast, slow):
            if cut is None:
                continue
            lhs = sum((point[e] for e in cut.elements), ZERO)
            if not (
                cut.slack < 0
                and lhs == cut.rhs - cut.slack
                and cut.elements == tuple(g.edges_within(cut.node_set))
                and cut.rhs == rat(len(cut.node_set) - 1)
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
        sol0 = solve_rrst(inst0, BATCH)
        side = GraphSide(inst0.graph)
        mst_both = side.complete_min({e: t.C + t.second for e, t in inst0.costs.items()})
        weight_both = sum((inst0.costs[e].C + inst0.costs[e].second for e in mst_both), ZERO)
        if not (sol0.total == weight_both and sol0.X == sol0.Y and sol0.Z == sol0.X):
            failures.append(f"k=0 seed {5000 + i}")

        instf = generate_instance(n, 0.3, n - 1, 30, 5000 + i)
        solf = solve_rrst(instf, BATCH)
        mst_first = side.complete_min({e: t.C for e, t in instf.costs.items()})
        mst_second = side.complete_min({e: t.second for e, t in instf.costs.items()})
        w1 = sum((instf.costs[e].C for e in mst_first), ZERO)
        w2 = sum((instf.costs[e].second for e in mst_second), ZERO)
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
    mode_diff = [r.name for r in corpus.all_runs if r.total != r.strict_total]
    _verdict(
        9, not unstable and not mode_diff,
        f"repeat solves byte-identical and strict == batch totals on "
        f"{len(corpus.all_runs)} instances"
        + (f"; unstable {unstable[:3]}" if unstable else "")
        + (f"; mode mismatches {mode_diff[:3]}" if mode_diff else ""),
    )


def test_solution_documents_match_golden_digest(corpus):
    digest = hashlib.sha256()
    for r in corpus.all_runs:
        digest.update(r.text.encode())
    for g in corpus.graphic_runs:
        digest.update(serialize_solution(g.tree_sol).encode())
        digest.update(serialize_solution(g.basis_sol).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
