#!/usr/bin/env python3
"""Compare two sets of benchmark result records.

    python3 perfbench/compare.py perfbench/baseline perfbench/results

Each argument is a directory of the ``*.json`` records that ``run.py``
writes.  For every workload and metric the script prints each side's median
and quartiles over its seeds and the ratio of the medians, and marks an
end-to-end metric whose median got worse by more than its bound in
``BENCHMARK.json``.  Records of the same workload, seed and trace mode must
carry the same determinism digest.

Records made with different arithmetic backends are not compared (exit 2):
switching between ``fractions.Fraction`` and ``gmpy2.mpq`` moves every time
by about an order of magnitude.  Exit 1 means a regression beyond a bound,
a digest mismatch, a record with failed operations, or a workload and metric
that the baseline has and the new results lack.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["environment"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare records made with different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    status = 0
    for label, records in (("base", base), ("new", new)):
        for r in records:
            if r["failures"]:
                print(f"{label}: {r['workload']} seed {r['seed']} has {len(r['failures'])} failures")
                status = 1
    digests = {(r["scale"], r["workload"], r["seed"], r["trace"]): r["digest"] for r in base}
    for r in new:
        key = (r["scale"], r["workload"], r["seed"], r["trace"])
        if key in digests and digests[key] != r["digest"]:
            print(f"digest mismatch: {key}")
            status = 1

    groups = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for r in records:
            for name, m in r["metrics"].items():
                groups[(r["scale"], r["workload"], r["trace"], name)][side].append(m["value"])
    print(f"{'workload':<24} {'metric':<28} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'new/base':>9}")
    for (scale, workload, trace, name), (b, n) in sorted(groups.items()):
        if not n:
            print(f"missing from the new results: {scale}/{workload} trace {trace} {name}")
            status = 1
            continue
        if not b:
            continue
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        flag = ""
        if name in bounds and not trace:
            bound, better = bounds[name]
            worse = nq[1] < bq[1] * (1 - bound) if better == "higher" else nq[1] > bq[1] * (1 + bound)
            if worse:
                flag = f"  WORSE than bound {bound}"
                status = 1
        cells = " ".join(f"{'/'.join(f'{v:.4g}' for v in q):>32}" for q in (bq, nq))
        print(f"{scale + '/' + workload:<24} {name:<28} {cells} {ratio:>9.3f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
