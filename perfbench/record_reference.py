#!/usr/bin/env python3
"""Record the reference optimum of every document in the workload universes.

    python3 perfbench/record_reference.py

Every scale and workload is recorded afresh, so the ``recorded_from`` stamp
holds for the whole file.  Each document is solved and verified three times;
its digest, optimal total and median operation time at the reference speed
of ``run.SpeedMeter`` go into ``reference.json``.  The correctness gate
compares every operation against the total; the time only ranks documents
for the stratified sampling in ``workloads.run_order``.  Re-record only when
the documents change, and from a commit whose answers are trusted: the
references are what later commits are held to.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import run
import workloads

TIMINGS = 3  # the recorded time is the median of this many


def record(rrst, workload) -> dict:
    out = {}
    for stratum, i in workloads.universe(workload):
        item = workloads.make_item(rrst, stratum, i)
        meter = run.SpeedMeter()
        spans = []
        with meter:
            for _ in range(TIMINGS):
                start = perf_counter()
                _, text, problems = run.operation(rrst, item, None)
                spans.append((start, perf_counter()))
        ms = statistics.median(meter.scaled(spans)) * 1e3
        if problems:
            raise SystemExit(f"{workload.name}/{item.key}: {problems}")
        out[item.key] = {"sha256": item.sha256[:16], "total": json.loads(text)["total"], "ms": round(ms, 2)}
    return out


def main() -> int:
    rrst = run.import_rrst()
    reference = {"recorded_from": run.environment(rrst)}
    for scale, table in workloads.WORKLOADS.items():
        for name, workload in table.items():
            reference.setdefault(scale, {})[name] = record(rrst, workload)
            print(f"{scale}/{name}: {len(reference[scale][name])} documents", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
