"""Span tracing around the calls into each rrst layer, from outside rrst.

``install`` rebinds module attributes and class methods of an imported
``rrst`` package to thin wrappers that record a span per call: the solver's
references to ``build_relaxation`` and ``cutting_plane_solve``, a
``SimplexSession`` subclass bound in ``rrst.lpmodel``, the ``GraphSide`` and
``MatroidSide`` methods, ``is_independent`` and ``rank`` of the matroid
families, and ``rrst.separation._sweep_min_cut``.  The source of ``rrst`` is
not edited.  Spans stay in memory and are written out once, at the end.

Some counters read private state of ``rrst`` (``SimplexSession._pivots``,
``SimplexSession.rows``, calls to ``_sweep_min_cut``); they are listed in
``PRIVATE_STATE_COUNTERS`` and break if those internals are renamed.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

PRIVATE_STATE_COUNTERS = (
    "simplex.dual_pivots",
    "simplex.dual_ms_per_pivot",
    "simplex.cold_pivots",
    "simplex.peak_rows",
    "simplex.peak_cols",
    "simplex.peak_entry_bits",
    "separation.flow_sweeps",
)

# span name -> layer metric that its self time is charged to
SELF_TIME_METRICS = {
    "instance.parse": "instance.parse_ms",
    "solver.solve": "solver.self_ms",
    "solver.serialize": "solver.serialize_ms",
    "solver.verify": "solver.verify_ms",
    "lpmodel.build": "lpmodel.build_ms",
    "lpmodel.cut_loop": "lpmodel.cut_loop_self_ms",
    "simplex.cold": "simplex.cold_ms",
    "simplex.dual": "simplex.dual_ms",
    "separation.separate": "separation.ms",
    "separation.sweep": "separation.ms",
    "sides.fix": "sides.shrink_ms",
    "sides.remove": "sides.shrink_ms",
    "sides.complete": "sides.complete_ms",
    "matroids.indep": "matroids.indep_ms",
    "matroids.rank": "matroids.rank_ms",
}


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.session = None  # the live tableau of the current cutting-plane solve

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def self_ms(self) -> dict[str, float]:
        """Self time per span name: duration minus that of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def _entry_bits(session) -> int:
    bits = 0
    for row in session.rows + [session.cost]:
        for v in row:
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > bits:
                bits = b
    return bits


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result)
        return result

    return wrapper


def install(rrst, tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported rrst package in spans."""
    lpmodel, matroids, separation = rrst.lpmodel, rrst.matroids, rrst.separation
    sides, solver = rrst.sides, rrst.solver
    counts = tracer.counts

    def built(model):
        counts["lpmodel.builds"] += 1
        counts["lpmodel.merged"] += model.reduced == "merged"

    def cut_loop_done(result):
        counts["lpmodel.cut_rounds"] += result.rounds
        counts["lpmodel.cuts"] += result.cuts_added
        # sizing the final tableau is trace bookkeeping, kept out of every layer
        tracer.enter("trace.bookkeeping")
        tracer.peak("simplex.peak_entry_bits", _entry_bits(tracer.session))
        tracer.exit()

    solver.build_relaxation = _wrap(tracer, "lpmodel.build", solver.build_relaxation, built)
    solver.cutting_plane_solve = _wrap(tracer, "lpmodel.cut_loop", solver.cutting_plane_solve, cut_loop_done)

    class TracedSession(lpmodel.SimplexSession):
        def __init__(self, lp):
            tracer.session = self
            tracer.span("simplex.cold", super().__init__, lp)
            counts["simplex.cold_pivots"] += self._pivots
            tracer.peak("simplex.peak_rows", len(self.rows))
            tracer.peak("simplex.peak_cols", self.ncols)

        def add_cuts(self, cuts):
            before = self._pivots
            status = tracer.span("simplex.dual", super().add_cuts, cuts)
            counts["simplex.dual_pivots"] += self._pivots - before
            tracer.peak("simplex.peak_rows", len(self.rows))
            tracer.peak("simplex.peak_cols", self.ncols)
            return status

    lpmodel.SimplexSession = TracedSession

    def separated(cuts):
        counts["separation.calls"] += 1
        counts["separation.hits"] += bool(cuts)

    def swept(_):
        counts["separation.flow_sweeps"] += 1

    for cls in (sides.GraphSide, sides.MatroidSide):
        cls.separate = _wrap(tracer, "separation.separate", cls.separate, separated)
        cls.fix = _wrap(tracer, "sides.fix", cls.fix)
        cls.remove = _wrap(tracer, "sides.remove", cls.remove)
        cls.complete_min = _wrap(tracer, "sides.complete", cls.complete_min)
    separation._sweep_min_cut = _wrap(tracer, "separation.sweep", separation._sweep_min_cut, swept)

    def independent(_):
        counts["matroids.indep_calls"] += 1

    for cls in (matroids.GraphicMatroid, matroids.UniformMatroid, matroids.PartitionMatroid):
        cls.is_independent = _wrap(tracer, "matroids.indep", cls.is_independent, independent)
    matroids.Matroid.rank = _wrap(tracer, "matroids.rank", matroids.Matroid.rank)


def _ratio(num, den) -> float:
    """num / den, or 0 when a layer never ran."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics, per traced operation unless a ratio or a peak."""
    ms = defaultdict(float)
    for name, value in tracer.self_ms().items():
        if name in SELF_TIME_METRICS:
            ms[SELF_TIME_METRICS[name]] += value
    c = tracer.counts
    out = {name: ms[name] / ops for name in sorted(set(SELF_TIME_METRICS.values()))}
    for name in ("simplex.dual_pivots", "simplex.cold_pivots", "separation.calls", "separation.flow_sweeps",
                 "lpmodel.cut_rounds", "lpmodel.cuts", "matroids.indep_calls", "solver.iterations",
                 "instance.doc_bytes"):
        out[name] = c[name] / ops
    out["simplex.dual_ms_per_pivot"] = _ratio(ms["simplex.dual_ms"], c["simplex.dual_pivots"])
    out["separation.cut_yield"] = _ratio(c["separation.hits"], c["separation.calls"])
    out["lpmodel.merged_share"] = _ratio(c["lpmodel.merged"], c["lpmodel.builds"])
    for name in ("simplex.peak_rows", "simplex.peak_cols", "simplex.peak_entry_bits"):
        out[name] = tracer.peaks[name]
    return out
