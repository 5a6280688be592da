"""Shared fixtures and helpers for building small instances in tests."""

from __future__ import annotations

import contextlib
import math
import signal
import threading
from fractions import Fraction

import pytest

# One line per acceptance criterion, printed by pytest_terminal_summary so
# the verdicts stay visible even when test stdout is captured.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from rrst import simplex
from rrst.instance import CostColumns, Instance, instance_from_dict, instance_to_dict
from rrst.matroids import GraphicMatroid, Matroid, PartitionMatroid, UniformMatroid


@pytest.fixture(autouse=True, scope="session")
def _pivot_limit():
    """Cap the pivots of each simplex session far below the library's bound.

    The largest session in the suite takes a few hundred pivots, so a
    simplex that cycles fails with TooLarge instead of hanging.
    Session scope puts the cap in place before module-scoped fixtures,
    such as the acceptance corpus, solve anything.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_PIVOT_LIMIT", 10_000)
        yield


# Wall-clock seconds each phase of a test (setup, call, teardown) may take.
# The whole suite runs in well under a minute, so only a phase that hangs,
# such as a union-find root walk caught in a cycle, comes near this.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test phase that ran past TEST_TIME_LIMIT_S.  Not an
    Exception, so neither hypothesis, which would replay and shrink the
    example that raised it, nor an `except Exception` in the code under
    test swallows it."""


def _time_limit_reached(signum, frame):
    raise TimeLimitExceeded(f"test phase ran past its {TEST_TIME_LIMIT_S} s time limit")


@contextlib.contextmanager
def _time_limit():
    """Raise TimeLimitExceeded, with a traceback at the line the test was
    stuck on, once TEST_TIME_LIMIT_S pass.  Needs SIGALRM and an interval
    timer, so it is armed only on POSIX and on the main thread."""
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_reached)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# One limit per phase, so a hang in a module fixture such as the acceptance
# corpus fails too.  These hooks run only for the tests under this directory.
@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    with _time_limit():
        yield


def make_instance(n, pairs, triples, k) -> Instance:
    """Instance from endpoint pairs and (C, c, d) triples, ids 0..m-1."""
    edges = {i: tuple(p) for i, p in enumerate(pairs)}
    costs = CostColumns.from_rows(dict(enumerate(triples)))
    return Instance(matroid=GraphicMatroid(range(n), edges), costs=costs, k=k)


def graphic_twin(inst) -> Instance:
    """A tree instance read back from its graphic-matroid document."""
    doc = instance_to_dict(inst)
    edges = doc["edges"]
    return instance_from_dict({
        "family": "graphic", "nodes": doc["nodes"], "k": doc["k"],
        "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in edges],
        "costs": [{"id": e["id"], "C": e["C"], "c": e["c"], "d": e["d"]} for e in edges]})


def make_uniform_instance(m, r, triples, k) -> Instance:
    costs = CostColumns.from_rows(dict(enumerate(triples)))
    return Instance(matroid=UniformMatroid(frozenset(range(m)), r), costs=costs, k=k)


def make_partition_instance(parts, triples, k) -> Instance:
    """parts: list of (elements, cap); triples keyed by element id."""
    matroid = PartitionMatroid([(frozenset(els), cap) for els, cap in parts])
    costs = CostColumns.from_rows(triples)
    return Instance(matroid=matroid, costs=costs, k=k)


class GenericOracleMatroid(Matroid):
    """A matroid given only by an independence oracle: the reference the
    closed families are checked against by the generic greedy, and a
    family the solver has no route for."""

    family = "oracle"

    def __init__(self, ground, oracle):
        self._oracle = oracle
        super().__init__(ground)

    def is_independent(self, subset) -> bool:
        self._check_elements(subset)
        return self._oracle(frozenset(subset))


def cleared(point):
    """A point of exact rationals as (int numerators, unit), the form the
    separation routes take: unit is the LCM of the point's denominators."""
    unit = math.lcm(*(Fraction(v).denominator for v in point.values()))
    return {e: int(v * unit) for e, v in point.items()}, unit


def violation(cut, point):
    """How far the exact `point` exceeds the row (elements, rhs) that a
    separation route returns: positive exactly when the row is violated."""
    elements, rhs = cut
    return sum((Fraction(point[e]) for e in elements), Fraction(0)) - rhs


def cut_nodes(cut, graph):
    """The node set of a forest row: the endpoints of its edges, sorted."""
    return tuple(sorted({v for e in cut[0] for v in graph.edges[e]}))


def edges_within(graph, nodes):
    """The ids of a graphic matroid's edges with both ends in nodes,
    ascending."""
    return tuple(sorted(e for e, (u, v) in graph.edges.items() if u in nodes and v in nodes))


def vertex_values(solution):
    """A VertexSolution's values as exact rationals, one per column."""
    return [Fraction(v, solution.den) for v in solution.values]


def vertex_objective(solution):
    """A VertexSolution's objective value as an exact rational."""
    return Fraction(solution.objective, solution.den)


TRIANGLE_PAIRS = [(0, 1), (0, 2), (1, 2)]


@pytest.fixture
def triangle_unit():
    """K3 with C=c=1, d=0 everywhere."""
    return make_instance(3, TRIANGLE_PAIRS, [(1, 1, 0)] * 3, k=0)
