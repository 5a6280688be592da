"""Command-line interface.

Subcommands:

* ``solve``   - solve an instance file, print/write the solution document;
* ``gen``     - emit a seeded random instance document;
* ``verify``  - check a solution document against its instance;
* ``compare`` - run solver and exhaustive oracle over a suite, report agreement;
* ``oracle``  - solve an instance by exhaustive enumeration only.

Every command that reads an instance document (``solve``, ``verify``,
``oracle`` and ``compare --suite DIR``) reads either kind through the one
reader, which tells a matroid document by its ``family`` key, and runs the
one solve, verify or brute force on it.  No flag picks a separation
route.  The oracle lists the bases of every family by the one
enumeration and takes at most 2,236 of them, the pair scan's bound: past
it, ``oracle`` exits 2 and ``compare`` records the line's oracle as
skipped.  ``compare --seeds A..B --nodes N`` draws each instance with
``gen``'s default density and cost range and k = seed mod N, one at a
time, so its memory does not grow with the range.  ``solve --lp-dump-dir
DIR`` writes the relaxation the solution carries, only when an LP was
built.

Exit codes: 0 success, 2 an input to fix or to shrink, 3 verification
failure or solver/oracle disagreement, 4 a bug (see errors.py).
`failure` is the one map from an error to its code, for `main` and for
each line of `compare`.

The ``RRST_LOG`` environment variable (error|info|debug, default error)
controls diagnostic logging on stderr; ``debug`` adds ``solve``'s timings and LP size.
Records from `main` reach only the stderr handler it attaches.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from collections.abc import Iterable

from .errors import InputError, ParseError, RRSTError, TooLarge, ValidationError
from .gen import builtin_small_suite, generate_instance
from .instance import Instance, dump_json, load_instance, read_json, serialize_instance
from .oracle import brute_force
from .rational import rat_str
from .solver import serialize_solution, solve, verify_solution

log = logging.getLogger("rrst")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

# the generator's density and cost range: `gen`'s defaults, and the only
# values `compare --seeds` draws with
DENSITY = 0.5
COST_MAX = 20

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
# the stderr handler the last call of main put on the rrst logger
_log_handler: logging.Handler | None = None


def _configure_logging() -> None:
    """Set the rrst logger, and only it, to RRST_LOG's level, writing to the
    sys.stderr of this call and nowhere else: each call of `main` replaces
    the handler the last one added, and no record propagates to a host
    program's root logger, which is left as it is."""
    global _log_handler
    raw = os.environ.get("RRST_LOG", "error")
    if raw not in _LOG_LEVELS:
        raise ValidationError(
            f"RRST_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}"
        )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    if _log_handler is not None:
        log.removeHandler(_log_handler)
    log.addHandler(handler)
    _log_handler = handler
    log.setLevel(_LOG_LEVELS[raw])
    log.propagate = False


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cut_counts(sol) -> tuple[int, int]:
    """The cut loop's rounds and cuts, 0 and 0 when no LP was built."""
    relaxation = sol.relaxation
    return (0, 0) if relaxation is None else (relaxation.rounds, relaxation.cuts_added)


def _timed(what: str, fn, *args):
    """fn(*args), its wall time logged at debug."""
    t0 = time.perf_counter()
    out = fn(*args)
    log.debug("%s in %.3f ms", what, (time.perf_counter() - t0) * 1000)
    return out


def failure(exc: Exception) -> tuple[int, str]:
    """The exit code of an error, by who must act, and the text that says
    so: the caller fixes an InputError or an unreadable file and shrinks a
    TooLarge input (2); anything else rrst raises is a bug (4)."""
    if isinstance(exc, (InputError, OSError)):
        return EXIT_INPUT, str(exc)
    if isinstance(exc, TooLarge):
        return EXIT_INPUT, f"input too large: {exc}"
    return EXIT_INTERNAL, f"{type(exc).__name__}: {exc}"


def cmd_solve(args) -> int:
    inst = _timed(f"read {args.input}", load_instance, args.input)
    log.info("Instance: %d elements, k=%d", len(inst.costs.C), inst.k)
    sol = _timed("solved", solve, inst)
    log.info("solved: total=%s iterations=%d rounds=%d cuts=%d",
             rat_str(sol.total), sol.iterations, *_cut_counts(sol))
    relaxation = sol.relaxation
    if relaxation is not None:
        model = relaxation.model
        log.debug("LP: %d block rows + %d cut rows, %d columns",
                  len(model.blocks), relaxation.cuts_added, len(model.blocks) * len(model.ids))
        if args.lp_dump_dir is not None:
            os.makedirs(args.lp_dump_dir, exist_ok=True)
            _write_text(os.path.join(args.lp_dump_dir, "relaxation.lp.txt"),
                        model.render(relaxation.cuts))
    _timed("wrote the solution", _write_text, args.output, serialize_solution(sol))
    return EXIT_OK


def cmd_gen(args) -> int:
    inst = generate_instance(args.nodes, args.density, args.k, args.cost_max, args.seed)
    _write_text(args.output, serialize_instance(inst))
    return EXIT_OK


def _load_solution_doc(path: str) -> dict:
    try:
        doc = read_json(path)
    except ParseError as exc:
        raise ParseError(f"solution document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a JSON object")
    return doc


def cmd_verify(args) -> int:
    doc = _load_solution_doc(args.solution)
    # an invalid instance is a usage error, raised before any check runs
    inst = load_instance(args.instance)
    failures = verify_solution(inst, doc)
    if failures:
        for line in failures:
            print(f"verification failed: {line}", file=sys.stderr)
        return EXIT_VERIFY
    print("ok")
    return EXIT_OK


def cmd_oracle(args) -> int:
    res = brute_force(load_instance(args.input))
    doc = {"X": res.X, "Y": res.Y, "Z": res.Z, "first_stage": rat_str(res.first_stage),
           "second_stage": rat_str(res.second_stage), "total": rat_str(res.total),
           "pairs_scanned": res.pairs_scanned}
    _write_text(args.output, dump_json(doc))
    return EXIT_OK


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise ValidationError(f"--seeds expects A..B with integers, got {text!r}") from exc
    if b < a:
        raise ValidationError(f"--seeds range {text!r} is empty")
    return range(a, b + 1)


def _suite_from_dir(path: str) -> list[tuple[str, Instance]]:
    try:
        names = sorted(f for f in os.listdir(path) if f.endswith(".json"))
    except OSError as exc:
        raise ValidationError(f"cannot read suite directory {path!r}: {exc}") from exc
    if not names:
        raise ValidationError(f"suite directory {path!r} contains no .json instances")
    return [(name, load_instance(os.path.join(path, name))) for name in names]


def _compare_instances(args) -> tuple[int, Iterable[tuple[str, Instance]]]:
    """The number of (name, instance) pairs to compare, and the pairs.  A
    suite is read whole, so a malformed document is refused before any
    line is written; seeded instances are checked up front and drawn one
    at a time."""
    if args.suite is not None and args.seeds is not None:
        raise ValidationError("give either --suite or --seeds, not both")
    if args.suite is not None:
        suite = builtin_small_suite() if args.suite == "builtin-small" else _suite_from_dir(args.suite)
        return len(suite), suite
    if args.seeds is None:
        raise ValidationError("compare needs --suite or --seeds")
    if args.nodes is None:
        raise ValidationError("--seeds needs --nodes")
    if args.nodes < 1:
        raise ValidationError(f"--nodes must be >= 1, got {args.nodes}")
    n, seeds = args.nodes, _parse_seed_range(args.seeds)
    return len(seeds), ((f"seed{s}-n{n}-k{s % n}", generate_instance(n, DENSITY, s % n, COST_MAX, s))
                        for s in seeds)


def _run_report(name: str, inst: Instance, with_oracle: bool) -> tuple[int, dict]:
    """The exit code of solving (and, with the oracle, checking) one
    instance, and its report line.  An oracle past its pair-scan bound
    is no failure: the solve ran, only the reference was skipped."""
    report: dict = {
        "name": name,
        "elements": len(inst.costs.C),
        "rank": inst.rank,
        "k": inst.k,
        "total": None,
        "iterations": None,
        "rounds": None,
        "cuts": None,
        "wall_ms": None,
        "oracle_total": None,
        "agree": None,
        "error": None,
    }
    t0 = time.perf_counter()
    try:
        sol = solve(inst)
    except RRSTError as exc:
        # reported as `rrst solve` reports it
        code, report["error"] = failure(exc)
        return code, report
    report["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    report["total"] = rat_str(sol.total)
    report["iterations"] = sol.iterations
    report["rounds"], report["cuts"] = _cut_counts(sol)
    if with_oracle:
        try:
            ref = brute_force(inst)
        except TooLarge as exc:
            report["error"] = f"oracle skipped: {type(exc).__name__}: {exc}"
            return EXIT_OK, report
        report["oracle_total"] = rat_str(ref.total)
        report["agree"] = sol.total == ref.total
        if not report["agree"]:
            return EXIT_VERIFY, report
    return EXIT_OK, report


def cmd_compare(args) -> int:
    count, instances = _compare_instances(args)
    log.info("comparing %d instances", count)
    out = sys.stdout if args.output in (None, "-") else open(args.output, "w", encoding="utf-8")
    worst = EXIT_OK
    try:
        for name, inst in instances:
            code, report = _run_report(name, inst, with_oracle=not args.no_oracle)
            if code == EXIT_VERIFY:
                log.error("disagreement on %s: solver=%s oracle=%s",
                          name, report["total"], report["oracle_total"])
            elif code == EXIT_INPUT:
                log.error("%s on %s", report["error"], name)
            elif code == EXIT_INTERNAL:
                log.error("solver failure on %s: %s", name, report["error"])
            # a bug (4) outranks a disagreement (3), which outranks an
            # input too large (2)
            worst = max(worst, code)
            out.write(dump_json(report))
    finally:
        if out is not sys.stdout:
            out.close()
    return worst


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrst",
        description="Exact solver for robust recoverable spanning trees and matroid bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--input", required=True, help="instance document (JSON)")
    p.add_argument("--output", default=None, help="solution path (default stdout)")
    p.add_argument("--lp-dump-dir", default=None, help="write the cut LP as text here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--density", type=float, default=DENSITY,
                   help="probability of each non-tree edge (default %(default)s)")
    p.add_argument("--k", type=int, required=True, help="recovery budget")
    p.add_argument("--cost-max", type=int, default=COST_MAX,
                   help="cost range upper bound (default %(default)s)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", default=None, help="instance path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check a solution document against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="run solver vs exhaustive oracle over a suite")
    p.add_argument("--suite", default=None,
                   help="'builtin-small' or a directory of instance documents")
    p.add_argument("--seeds", default=None,
                   help="seed range A..B for generated instances, with k = seed mod --nodes")
    p.add_argument("--nodes", type=int, default=None, help="nodes for generated instances")
    p.add_argument("--no-oracle", action="store_true", help="skip the exhaustive reference")
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="solve by exhaustive enumeration")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = _parser().parse_args(argv)
        return args.func(args)
    except (RRSTError, OSError) as exc:
        code, text = failure(exc)
        print(f"{'internal error' if code == EXIT_INTERNAL else 'error'}: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
