#!/usr/bin/env python3
"""Closed-loop benchmark of ``rrst solve`` followed by ``rrst verify``.

One operation is what a command-line user does, run in-process: parse the
instance document, solve it with the default ``SolveConfig``, serialize the
solution and verify it against the instance.  One client sends the next
operation when the previous one has finished; there are no threads.

    python3 perfbench/run.py --workload tree-mid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
Times are reported at a fixed reference speed: while it times, the run
samples the host's speed every 10 ms and scales each time by it (see
``SpeedMeter`` and README.md).
``--trace 1`` runs a fixed number of operations (proportional to
``--seconds``) untraced and then traced, and reports the per-layer metrics
and the tracing overhead.  Every operation passes a correctness gate; the
last line of standard output is the JSON result, and the exit code is 1 if
any check failed.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # setup_s is the median of this many imports + document builds
# Times are scaled to a host on which speed_sample() takes SAMPLE_REF_MS
SAMPLE_REF_MS = 0.3
SAMPLE_PERIOD_S = 0.01  # wall time between speed samples
# A speed sample slower than this many times the run's median was
# interrupted, not slowed by the host; it counts as this many medians
SAMPLE_CLIP = 2.0
# op_ms.p80: runs are sized for at least two passes through a sample of 25
# or more documents, which leaves at least 10 samples beyond the 80th percentile
TAIL_PERCENTILE = 80


def _untraced(name, fn, *args):
    return fn(*args)


def speed_sample():
    """A fixed, short piece of exact rational arithmetic."""
    acc = Fraction(0)
    for i in range(60):
        acc += Fraction(1, i % 50 + 1)
    return acc


class SpeedMeter:
    """Samples the host's speed while the program runs.

    The host's CPU speed swings by a factor of up to about 2 within a
    fraction of a second, and the mix of fast and slow periods differs from
    run to run.  While the meter is on, an interval timer interrupts the
    program every SAMPLE_PERIOD_S and times speed_sample(), with the garbage
    collector held off so that the sample measures the CPU alone.  An
    interval's time at the reference speed is its time less the samples
    taken inside it, scaled by SAMPLE_REF_MS over their mean time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None):
        gc_was_on = gc.isenabled()
        gc.disable()
        start = perf_counter()
        speed_sample()
        self.samples.append((start, perf_counter() - start))
        if gc_was_on:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that even the shortest interval has a neighbour

    def scaled(self, spans) -> list[float]:
        """Times in seconds, at the reference speed, of the (start, end)
        `spans`, which were timed while the meter was on."""
        starts = [start for start, _ in self.samples]
        cap = SAMPLE_CLIP * statistics.median(t for _, t in self.samples)
        out = []
        for t0, t1 in spans:
            a, b = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
            inside = [t for _, t in self.samples[a:b]]
            # a span too short to hold a sample takes its neighbours' speed
            near = inside or [t for _, t in self.samples[max(a - 1, 0):a + 1]]
            speed_ms = statistics.fmean(min(t, cap) for t in near) * 1e3
            out.append((t1 - t0 - math.fsum(inside)) * SAMPLE_REF_MS / speed_ms)
        return out

    def summary(self) -> dict:
        ms = [t * 1e3 for _, t in self.samples]
        return {"count": len(ms), "min": min(ms), "median": statistics.median(ms), "max": max(ms)}


def import_rrst():
    """Import a fresh copy of rrst from this checkout's src/."""
    for name in [m for m in sys.modules if m == "rrst" or m.startswith("rrst.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rrst = importlib.import_module("rrst")
    if Path(rrst.__file__).resolve().parent != SRC / "rrst":
        raise ImportError(f"rrst was imported from {rrst.__file__}, not from {SRC}")
    return rrst


def set_up(workload, seed, reference):
    """Import rrst and build the run's documents, SETUP_REPEATS times.
    Returns rrst, the documents, and each repeat's (start, end)."""
    cost_ms = {key: ref["ms"] for key, ref in reference.items()}
    spans = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        rrst = import_rrst()
        order = workloads.run_order(workload, seed, cost_ms)
        items = [workloads.make_item(rrst, stratum, i) for stratum, i in order]
        spans.append((start, perf_counter()))
    return rrst, items, spans


def check(rrst, item, inst, text, reference, span=_untraced) -> list[str]:
    """The correctness gate: what `rrst verify` checks, plus the optimum."""
    doc = json.loads(text)
    verify = rrst.verify_tree_solution if item.kind == "tree" else rrst.verify_basis_solution
    try:
        problems = list(span("solver.verify", verify, inst, doc))
    except rrst.ValidationError as exc:
        problems = [f"verify: {exc}"]
    total = Fraction(doc["total"])
    if total != Fraction(doc["lp_bound"]):
        problems.append(f"total {doc['total']} differs from lp_bound {doc['lp_bound']}")
    if reference is None:  # recording the references themselves
        return problems
    ref = reference.get(item.key)
    if ref is None or ref["sha256"] != item.sha256[:16]:
        problems.append("no reference optimum recorded for this document")
    elif total != Fraction(ref["total"]):
        problems.append(f"total {doc['total']} differs from reference optimum {ref['total']}")
    return problems


def operation(rrst, item, reference, span=_untraced):
    """Parse, solve, serialize, verify.  Returns (solution, text, problems)."""
    tree = item.kind == "tree"
    inst = span("instance.parse", rrst.loads_instance if tree else rrst.loads_matroid_instance, item.doc)
    sol = span("solver.solve", rrst.solve_rrst if tree else rrst.solve_rrmb, inst)
    text = span("solver.serialize", rrst.serialize_solution, sol)
    return sol, text, check(rrst, item, inst, text, reference, span)


def guarded_operation(rrst, item, reference, span=_untraced):
    """`operation`, with a raise turned into a failed check."""
    try:
        return operation(rrst, item, reference, span)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return None, None, [f"raised {type(exc).__name__} at {Path(where.filename).name}:{where.lineno}: {exc}"]


class Loop:
    """Closed loop over the run's documents, cycling if time allows."""

    def __init__(self, rrst, items, reference):
        self.rrst = rrst
        self.items = items
        self.reference = reference
        self.spans: list[tuple[float, float]] = []  # (start, end) of each operation
        self.passed: list[bool] = []  # whether each operation passed the gate
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}

    def run(self, seconds=None, ops=None, tracer=None) -> float:
        """Run for `seconds`, or for exactly `ops` operations; returns the
        summed latency of those operations.  Repeated runs share the gate's
        record of outputs."""
        span = tracer.span if tracer is not None else _untraced
        start = perf_counter()
        first = len(self.spans)
        i = 0
        while True:
            item = self.items[i % len(self.items)]
            t0 = perf_counter()
            if tracer is not None:
                tracer.op = i
                tracer.enter("op")
            sol, text, problems = guarded_operation(self.rrst, item, self.reference, span)
            if tracer is not None:
                tracer.exit()
            t1 = perf_counter()
            self.spans.append((t0, t1))
            if tracer is not None and sol is not None:
                tracer.counts["solver.iterations"] += sol.iterations
                tracer.counts["instance.doc_bytes"] += len(item.doc.encode())
            if text is not None:
                if self.outputs.setdefault(item.key, text) != text:
                    problems.append("output differs from an earlier solve of the same document")
            if problems:
                self.failures.append(f"{item.key}: " + "; ".join(problems))
            self.passed.append(not problems)
            i += 1
            if (ops is not None and i >= ops) or (ops is None and t1 - start >= seconds):
                break
        return math.fsum(t1 - t0 for t0, t1 in self.spans[first:])

    @property
    def attempted(self) -> int:
        return len(self.spans)

    def whole_passes(self) -> int:
        """Operations in the completed passes through the sample, in which
        every document weighs the same; all of them if no pass completed."""
        return self.attempted // len(self.items) * len(self.items) or self.attempted

    def finish(self) -> list[str]:
        """Solve, untimed, every document the timed loop did not reach, so
        that the digest covers the whole sample however fast the program is.
        Returns the gate's failures on those documents."""
        failures = []
        for item in self.items:
            if item.key in self.outputs:
                continue
            _, text, problems = guarded_operation(self.rrst, item, self.reference)
            if text is not None:
                self.outputs[item.key] = text
            if problems:
                failures.append(f"{item.key} (untimed): " + "; ".join(problems))
        return failures

    def digest(self) -> str:
        """sha256 over the solution documents of the whole sample, in run order."""
        texts = (self.outputs.get(item.key, "") for item in self.items)
        return hashlib.sha256("".join(texts).encode()).hexdigest()


def self_check(rrst, items, outputs, reference) -> list[str]:
    """Corrupt one verified solution twice; the gate must reject both."""
    item = next((it for it in items if it.key in outputs), None)
    if item is None:
        return ["self-check: no verified solution to corrupt"]
    inst = (rrst.loads_instance if item.kind == "tree" else rrst.loads_matroid_instance)(item.doc)
    good = json.loads(outputs[item.key])
    wrong_total = dict(good, total=str(Fraction(good["total"]) + 1))
    short_x = dict(good, X=good["X"][1:])
    missed = []
    for label, doc in (("total+1", wrong_total), ("X minus one element", short_x)):
        if not check(rrst, item, inst, json.dumps(doc), reference):
            missed.append(f"self-check: gate accepted a corrupted solution ({label}) of {item.key}")
    return missed


def hd_quantile(values, pct) -> float:
    """Harrell-Davis estimate of the `pct` percentile.

    A mean of all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p))
    mass over [(i-1)/n, i/n].  Unlike a single order statistic, it does not
    jump when the sample's documents straddle a gap in the cost distribution.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0

    steps = 8  # Simpson's rule on each [(i-1)/n, i/n]
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        f = [pdf((i * steps + j) * h) for j in range(steps + 1)]
        weights.append(f[0] + f[-1] + 4 * math.fsum(f[1:-1:2]) + 2 * math.fsum(f[2:-1:2]))
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def environment(rrst) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "rrst").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    rat = rrst.rational.Rat
    return {
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "backend": f"{rat.__module__}.{rat.__qualname__}",
    }


def load_reference(scale: str, workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(scale, {}).get(workload, {})


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.WORKLOADS), default="full",
                        help="instance sizes; 'tiny' runs in seconds, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rrst" / "__init__.py").is_file():
        print(f"error: no rrst sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()[args.trace]
    workload = workloads.WORKLOADS[args.scale][args.workload]
    reference = load_reference(args.scale, args.workload)
    meter = SpeedMeter()
    with meter:
        rrst, items, setup_spans = set_up(workload, args.seed, reference)
    env = environment(rrst)

    loop = Loop(rrst, items, reference)
    extra = {}
    if args.trace == 0:
        with meter:
            loop.run(seconds=args.seconds)
        n = loop.whole_passes()
        ok = sum(loop.passed[:n])
        metrics, wall = {}, {}
        for out, lat_s, setup_s in ((metrics, meter.scaled(loop.spans[:n]), meter.scaled(setup_spans)),
                                    (wall, [t1 - t0 for t0, t1 in loop.spans[:n]],
                                     [t1 - t0 for t0, t1 in setup_spans])):
            lat_ms = [t * 1e3 for t in lat_s]
            out["ops_per_s"] = ok / math.fsum(lat_s)
            out["op_ms.p50"] = hd_quantile(lat_ms, 50)
            out[f"op_ms.p{TAIL_PERCENTILE}"] = hd_quantile(lat_ms, TAIL_PERCENTILE)
            out["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_ratio"] = (loop.attempted - len(loop.failures)) / loop.attempted
        extra["timed_operations"] = n
        extra["tail_samples_beyond"] = n - math.ceil(TAIL_PERCENTILE / 100 * n)
        extra["speed_sample_ms"] = meter.summary()
        extra["wall_clock"] = wall
    else:
        # the same operations untraced, then traced; the traced outputs must
        # match the untraced ones byte for byte
        ops = max(1, round(workload.trace_rate * args.seconds))
        untraced_s = loop.run(ops=ops)
        tracer = tracing.Tracer()
        tracing.install(rrst, tracer)
        traced_s = loop.run(ops=ops, tracer=tracer)
        metrics = tracing.layer_metrics(tracer, ops)
        metrics["trace.overhead_ops_per_s"] = ops / untraced_s - ops / traced_s
        self_times = {name: metrics[name] for name in set(tracing.SELF_TIME_METRICS.values())}
        extra["largest_self_time"] = max(self_times, key=self_times.get)
        extra["traced_ops"] = ops
        extra["private_state_counters"] = list(tracing.PRIVATE_STATE_COUNTERS)
    failures = loop.failures + loop.finish() + self_check(rrst, items, loop.outputs, reference)

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "fail_ratio": len(loop.failures) / loop.attempted,
        "failures": failures,
        "digest": loop.digest(),
        "digest_documents": len(items),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.scale}-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")

    print("environment " + json.dumps(env, sort_keys=True))
    for key in sorted(extra):
        print(f"{key} {extra[key]}")
    print(f"attempted {loop.attempted} failed {len(loop.failures)} fail_ratio {record['fail_ratio']}")
    print(f"digest {record['digest']} over {record['digest_documents']} documents")
    for line in failures:
        print(f"FAILED {line}")
    for name, unit in declared.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": record["metrics"],
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
