#!/usr/bin/env python3
"""Run the solver against the exhaustive oracle on the built-in small suite.

Prints one JSON-lines report per instance (to --output if given) and a
summary to stderr; exits nonzero on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from rrst import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="report path (default: temp file)")
    parser.add_argument("--mode", default="batch", choices=["batch", "strict"])
    parser.add_argument("--separation", default="mincut", choices=["mincut", "exhaustive"])
    args = parser.parse_args()

    out = args.output
    if out is None:
        with tempfile.NamedTemporaryFile(suffix=".jsonl", prefix="rrst-suite-", delete=False) as fh:
            out = fh.name
    code = cli.main([
        "compare", "--suite", "builtin-small",
        "--mode", args.mode, "--separation", args.separation,
        "--output", out,
    ])
    reports = [json.loads(line) for line in open(out, encoding="utf-8")]
    agree = sum(1 for r in reports if r["agree"] is True)
    wall = sum(r["wall_ms"] or 0 for r in reports)
    print(
        f"{len(reports)} instances, {agree} agree, "
        f"{sum(1 for r in reports if r['agree'] is False)} disagree, "
        f"solver wall time {wall / 1000:.2f}s, reports in {out}",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
