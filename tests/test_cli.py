"""Command-line surface: subcommands, exit codes, determinism."""

import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from rrst import cli, errors, lpmodel, oracle, sides
from rrst.errors import (InfeasibleModel, InputError, InternalError, ParseError, TooLarge,
                         ValidationError)
from rrst.instance import load_instance
from rrst.oracle import BruteResult
from rrst.rational import rat, rat_str
from rrst.solver import solve

from reference_pair_scan import full_pair_scan


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """Exit status of the CLI, also when argparse rejects the arguments."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["gen", "--nodes", "5", "--density", "0.5", "--k", "1",
                "--cost-max", "9", "--seed", "7", "--output", str(path)]) == 0
    return path


@pytest.fixture
def matroid_file(tmp_path):
    path = tmp_path / "minst.json"
    path.write_text(json.dumps({
        "family": "uniform", "elements": [0, 1, 2, 3], "rank": 2, "k": 1,
        "costs": [{"id": i, "C": i + 1, "c": 4 - i, "d": 0} for i in range(4)],
    }))
    return path


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--nodes", "6", "--k", "2", "--seed", "42", "--output"]
    assert run(args + [str(a)]) == 0
    assert run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_to_stdout(capsys):
    assert run(["gen", "--nodes", "3", "--k", "0", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == 3 and doc["k"] == 0


def test_solve_verify_oracle_round_trip(tmp_path, inst_file, capsys):
    sol = tmp_path / "sol.json"
    assert run(["solve", "--input", str(inst_file), "--output", str(sol)]) == 0
    assert run(["verify", "--instance", str(inst_file), "--solution", str(sol)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert run(["oracle", "--input", str(inst_file)]) == 0
    oracle_doc = json.loads(capsys.readouterr().out)
    sol_doc = json.loads(sol.read_text())
    assert oracle_doc["total"] == sol_doc["total"]


def test_solve_is_byte_deterministic(tmp_path, inst_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["solve", "--input", str(inst_file), "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_strict_and_exhaustive_flags(inst_file, capsys):
    # each side separates by its one route: no flag picks the exhaustive
    # reference, and neither subcommand lists one
    assert exit_code(["solve", "--input", str(inst_file), "--separation", "exhaustive"]) == 2
    assert exit_code(["compare", "--seeds", "1..1", "--nodes", "4", "--separation", "exhaustive"]) == 2
    for command in ("solve", "compare"):
        assert exit_code([command, "--help"]) == 0
        assert "--separation" not in capsys.readouterr().out
    # the one-LP solve has no strict rounding mode
    assert exit_code(["solve", "--input", str(inst_file), "--mode", "strict"]) == 2


def test_matroid_round_trip(tmp_path, matroid_file, capsys):
    sol = tmp_path / "msol.json"
    assert run(["solve", "--input", str(matroid_file), "--output", str(sol)]) == 0
    assert run(["verify", "--instance", str(matroid_file), "--solution", str(sol)]) == 0
    capsys.readouterr()
    assert run(["oracle", "--input", str(matroid_file)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == json.loads(sol.read_text())["total"]


@pytest.fixture
def kind_files(tmp_path, inst_file, matroid_file):
    """One document of each kind the CLI reads; the graphic one is the
    tree instance's twin."""
    tree = json.loads(inst_file.read_text())
    graphic, partition = tmp_path / "ginst.json", tmp_path / "pinst.json"
    graphic.write_text(json.dumps({
        "family": "graphic", "nodes": tree["nodes"], "k": tree["k"],
        "edges": [{"id": e["id"], "u": e["u"], "v": e["v"]} for e in tree["edges"]],
        "costs": [{key: e[key] for key in ("id", "C", "c", "d")} for e in tree["edges"]]}))
    partition.write_text(json.dumps({
        "family": "partition", "k": 1,
        "parts": [{"elements": [0, 1, 2], "cap": 1}, {"elements": [3, 4], "cap": 2}],
        "costs": [{"id": i, "C": 3 * i % 5, "c": (2 * i + 1) % 4, "d": i % 2} for i in range(5)]}))
    return {"tree": inst_file, "graphic": graphic, "uniform": matroid_file, "partition": partition}


@pytest.mark.parametrize("kind", ["tree", "graphic", "uniform", "partition"])
def test_instance_kind_read_from_the_document(tmp_path, kind_files, kind, capsys):
    """solve, verify and oracle take no flag for the instance kind: a
    matroid document names its `family`, and a tree document has none."""
    inst, sol = kind_files[kind], tmp_path / "sol.json"
    assert run(["solve", "--input", str(inst), "--output", str(sol)]) == 0
    assert run(["verify", "--instance", str(inst), "--solution", str(sol)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert run(["oracle", "--input", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == json.loads(sol.read_text())["total"]
    if kind == "graphic":
        tree_sol = tmp_path / "tree-sol.json"
        assert run(["solve", "--input", str(kind_files["tree"]), "--output", str(tree_sol)]) == 0
        assert sol.read_bytes() == tree_sol.read_bytes()


def test_kind_and_prune_flags_are_gone(inst_file, capsys):
    """No flag names the kind or the oracle's scan, and `compare` draws
    seeded instances with `gen`'s defaults only."""
    compare_seeds = ["compare", "--seeds", "1..2", "--nodes", "4"]
    for argv in (["solve", "--input", str(inst_file), "--matroid"],
                 ["verify", "--instance", str(inst_file), "--solution", str(inst_file), "--matroid"],
                 ["oracle", "--input", str(inst_file), "--matroid"],
                 ["oracle", "--input", str(inst_file), "--prune"],
                 [*compare_seeds, "--density", "0.4"],
                 [*compare_seeds, "--cost-max", "9"],
                 [*compare_seeds, "--k", "1"]):
        assert exit_code(argv) == 2
    for command in ("solve", "verify", "oracle"):
        assert exit_code([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--matroid" not in out and "--prune" not in out
    assert exit_code(["compare", "--help"]) == 0
    out = capsys.readouterr().out
    assert not {"--density", "--cost-max", "--k"} & set(re.findall(r"--[a-z-]+", out))


def test_oracle_bounds_its_pair_scan(inst_file, capsys):
    """`oracle` always prunes its pair scan, and finds the full scan's
    optimum."""
    full = full_pair_scan(load_instance(inst_file))
    assert run(["oracle", "--input", str(inst_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["X"], doc["Y"], doc["Z"], doc["total"]) == (
        list(full.X), list(full.Y), list(full.Z), rat_str(full.total))
    assert doc["pairs_scanned"] < full.pairs_scanned


def test_oracle_answers_a_long_path(tmp_path, capsys):
    """A 1,000-node path has one spanning tree, listed at a depth past
    Python's recursion limit."""
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"nodes": 1000, "k": 0, "edges": [
        {"id": i, "u": i, "v": i + 1, "C": i % 3, "c": 1, "d": 0} for i in range(999)]}))
    assert run(["oracle", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["X"] == doc["Y"] == doc["Z"] == list(range(999))
    assert doc["pairs_scanned"] == 1 and doc["total"] == str(999 + sum(i % 3 for i in range(999)))


@pytest.mark.parametrize("cost_max", [10 ** 1000, 10 ** 1200], ids=["10^1000", "10^1200"])
def test_gen_refuses_costs_the_readers_refuse(tmp_path, cost_max):
    """A cost of more than 1,000 digits would write a document that `solve`
    rejects, so `gen` rejects its bound first and writes nothing."""
    out = tmp_path / "inst.json"
    assert run(["gen", "--nodes", "3", "--k", "0", "--seed", "1", "--cost-max", str(cost_max),
                "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("level", ["info", "debug"])
def test_debug_log_times_and_program_size(inst_file, level):
    """At debug, `solve` logs its read, solve and write times and the size
    of the LP it solved; at info it logs none of them."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "RRST_LOG": level,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rrst.cli", "solve", "--input", str(inst_file)],
                          env=env, capture_output=True, text=True, check=True)
    lines = proc.stderr.splitlines()
    assert any(line.startswith("INFO rrst: solved: total=") for line in lines)
    debug = [line.removeprefix("DEBUG rrst: ") for line in lines if line.startswith("DEBUG ")]
    if level == "info":
        assert debug == []
        return
    inst = load_instance(inst_file)
    sol = solve(inst)
    assert [re.sub(r"[0-9.]+ ms$", "T ms", line) for line in debug] == [
        f"read {inst_file} in T ms",
        "solved in T ms",
        f"LP: 3 block rows + {sol.relaxation.cuts_added} cut rows, {3 * len(inst.costs.C)} columns",
        "wrote the solution in T ms",
    ]


def test_missing_input_exits_2(tmp_path):
    assert run(["solve", "--input", str(tmp_path / "nope.json")]) == 2


def test_bad_mode_exits_2(inst_file):
    assert exit_code(["solve", "--input", str(inst_file), "--separation", "bogus"]) == 2
    assert exit_code(["compare", "--suite", "builtin-small", "--separation", "bogus"]) == 2
    assert exit_code(["solve", "--input", str(inst_file), "--mode", "bogus"]) == 2


def test_bad_gen_parameters_exit_2(tmp_path):
    assert run(["gen", "--nodes", "4", "--k", "9", "--seed", "1"]) == 2
    assert run(["gen", "--nodes", "4", "--k", "0", "--density", "2.0", "--seed", "1"]) == 2


def test_malformed_instance_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--input", str(bad)]) == 2
    bad.write_text(json.dumps({"nodes": 3, "k": 0, "edges": [
        {"id": 0, "u": 0, "v": 1, "C": 0.5, "c": 1, "d": 1}]}))
    assert run(["solve", "--input", str(bad)]) == 2


@pytest.mark.parametrize("doc", [
    {"family": "partition", "parts": [1], "k": 0, "costs": []},
    {"family": "graphic", "nodes": 2, "edges": [[0, 1]], "k": 0, "costs": []},
    {"family": "uniform", "elements": [0], "rank": 1, "k": 0, "costs": [5]},
    {"family": "uniform", "elements": [True, 2], "rank": 1, "k": 0,
     "costs": [{"id": 1, "C": 1, "c": 1, "d": 1}, {"id": 2, "C": 1, "c": 1, "d": 1}]},
    {"family": "partition", "parts": [{"elements": [True, 2], "cap": 1}], "k": 0,
     "costs": [{"id": 1, "C": 1, "c": 1, "d": 1}, {"id": 2, "C": 1, "c": 1, "d": 1}]},
    {"family": "partition", "parts": [{"elements": [0, 0, 1], "cap": 1}], "k": 0,
     "costs": [{"id": 0, "C": 1, "c": 1, "d": 1}, {"id": 1, "C": 1, "c": 1, "d": 1}]},
    {"family": "graphic", "nodes": -3, "edges": [], "k": 0, "costs": []},
])
def test_malformed_matroid_instance_exits_2(tmp_path, doc, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["solve", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


MALFORMED_JSON = {
    "deeply nested": ("[" * 100_000 + "]" * 100_000).encode(),
    "not UTF-8": '{"nodes": 2, "k": 0, "edges": [], "note": "caf\u00e9"}'.encode("latin-1"),
    # past the 4,300 digits Python reads into an int by default
    "integer past 4,300 digits": ('{"nodes": 2, "k": 0, "edges": [{"id": 0, "u": 0, "v": 1, "C": '
                                  + "9" * 5000 + ', "c": 1, "d": 1}]}').encode(),
}


@pytest.mark.parametrize("content", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
@pytest.mark.parametrize("command", ["solve", "verify --instance", "verify --solution", "oracle",
                                     "compare --suite"])
def test_malformed_json_exits_2(tmp_path, inst_file, command, content, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    bad = suite / "bad.json"
    bad.write_bytes(content)
    if command == "compare --suite":
        argv = ["compare", "--suite", str(suite)]
    elif command == "verify --instance":
        argv = ["verify", "--instance", str(bad), "--solution", str(inst_file)]
    elif command == "verify --solution":
        argv = ["verify", "--instance", str(inst_file), "--solution", str(bad)]
    else:
        argv = command.split() + ["--input", str(bad)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_tampered_solution_exits_3_and_names_check(tmp_path, inst_file, capsys):
    sol = tmp_path / "sol.json"
    run(["solve", "--input", str(inst_file), "--output", str(sol)])
    doc = json.loads(sol.read_text())
    doc["total"] = "12345"
    sol.write_text(json.dumps(doc))
    assert run(["verify", "--instance", str(inst_file), "--solution", str(sol)]) == 3
    err = capsys.readouterr().err
    assert "cost mismatch" in err.splitlines()[0]

    doc["X"] = doc["X"][:-1] + doc["X"][-1:][:0]  # drop an edge
    sol.write_text(json.dumps(doc))
    assert run(["verify", "--instance", str(inst_file), "--solution", str(sol)]) == 3
    assert "X not a basis" in capsys.readouterr().err.splitlines()[0]


INVALID_INSTANCES = {
    "disconnected tree": {"nodes": 3, "k": 0, "edges": [
        {"id": 0, "u": 0, "v": 1, "C": 1, "c": 1, "d": 1}]},
    "negative cost": {"nodes": 2, "k": 0, "edges": [
        {"id": 0, "u": 0, "v": 1, "C": -1, "c": 1, "d": 1}]},
    "k above rank": {
        "family": "uniform", "elements": [0, 1], "rank": 1, "k": 2,
        "costs": [{"id": i, "C": 1, "c": 1, "d": 1} for i in range(2)]},
}


@pytest.mark.parametrize("doc", INVALID_INSTANCES.values(), ids=INVALID_INSTANCES.keys())
def test_verify_invalid_instance_exits_2(tmp_path, doc, capsys):
    """An instance that `solve` rejects is an input error for `verify`
    too, not a failed check of the solution."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(doc))
    sol.write_text(json.dumps({"X": [0], "Y": [0], "Z": [0], "total": "3"}))
    assert run(["solve", "--input", str(inst)]) == 2
    capsys.readouterr()
    assert run(["verify", "--instance", str(inst), "--solution", str(sol)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_node_count_without_edges_exits_2(tmp_path, capsys):
    """A few bytes naming 10**9 nodes and no edges are refused before any
    per-node structure is allocated."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"nodes": 10**9, "k": 0, "edges": []}))
    assert run(["solve", "--input", str(inst)]) == 2
    assert "cannot connect" in capsys.readouterr().err


@pytest.fixture
def solved_k2(tmp_path):
    """A 5-node, k=2 instance and its solution document."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run(["gen", "--nodes", "5", "--k", "2", "--seed", "3", "--output", str(inst)]) == 0
    assert run(["solve", "--input", str(inst), "--output", str(sol)]) == 0
    return inst, sol


@pytest.mark.parametrize("claim", ["abc", None, [1], "1e1000000000"])
def test_unreadable_claimed_cost_exits_3(solved_k2, claim, capsys):
    inst, sol = solved_k2
    doc = json.loads(sol.read_text())
    doc["total"] = claim
    sol.write_text(json.dumps(doc))
    assert run(["verify", "--instance", str(inst), "--solution", str(sol)]) == 3
    assert "unreadable total" in capsys.readouterr().err


@pytest.mark.parametrize("cost", ["1e5000", "1e1000000000"])
def test_oversized_decimal_cost_exits_2(solved_k2, cost, capsys):
    inst, _ = solved_k2
    doc = json.loads(inst.read_text())
    for edge in doc["edges"]:
        edge["C"] = cost
    inst.write_text(json.dumps(doc))
    assert run(["solve", "--input", str(inst)]) == 2
    assert "more than 1000 digits" in capsys.readouterr().err


def test_internal_failure_exits_4(inst_file, monkeypatch):
    def boom(*a, **kw):
        raise InternalError("deliberate breach")

    monkeypatch.setattr(cli, "solve", boom)
    assert run(["solve", "--input", str(inst_file)]) == 4


def test_malformed_program_exits_4(inst_file, monkeypatch, capsys):
    """A row the solver cannot take is a bug in the solver, not bad input."""
    def fractional_cut(self, point, unit):
        return tuple(sorted(self.graph.edges)), Fraction(-1, 2)

    monkeypatch.setattr(sides.GraphSide, "separate", fractional_cut)
    assert run(["solve", "--input", str(inst_file)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: InternalError: a cut rhs must be an int, got Fraction(-1, 2)"), err


@pytest.mark.parametrize("matroid", [False, True], ids=["forest", "rank"])
def test_malformed_point_exits_4(inst_file, matroid_file, monkeypatch, capsys, matroid):
    """Only the solver builds the points separation takes, so one that sums
    past the selection size is a bug, not bad input."""
    real = lpmodel.RelaxationModel.stage_point

    def doubled(self, values, stage):
        return {e: 2 * v for e, v in real(self, values, stage).items()}

    monkeypatch.setattr(lpmodel.RelaxationModel, "stage_point", doubled)
    assert run(["solve", "--input", str(matroid_file if matroid else inst_file)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: InternalError: point sums past"), err


def test_pivot_limit_exits_2(inst_file, monkeypatch, capsys):
    monkeypatch.setattr("rrst.simplex._PIVOT_LIMIT", 0)
    assert run(["solve", "--input", str(inst_file)]) == 2
    assert "input too large" in capsys.readouterr().err


def test_compare_pivot_limit_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr("rrst.simplex._PIVOT_LIMIT", 0)
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--seeds", "1..1", "--nodes", "4", "--no-oracle",
                "--output", str(out)]) == 2
    [report] = [json.loads(l) for l in out.read_text().splitlines()]
    assert report["error"].startswith("input too large: simplex pivots exceeded")
    assert report["total"] is None


EXIT_CODE_OF_KIND = [(ParseError, 2), (ValidationError, 2), (TooLarge, 2),
                     (InternalError, 4), (InfeasibleModel, 4)]


@pytest.mark.parametrize("kind, code", EXIT_CODE_OF_KIND, ids=lambda v: getattr(v, "__name__", v))
def test_solve_and_compare_share_one_exit_code_map(inst_file, tmp_path, monkeypatch, capsys, kind, code):
    """An error from `solve` exits with its kind's code, from `rrst solve`
    and from a line of `rrst compare` alike."""
    def fail(*a, **kw):
        raise kind("planned")

    monkeypatch.setattr(cli, "solve", fail)
    assert run(["solve", "--input", str(inst_file)]) == code
    assert capsys.readouterr().err.startswith("internal error: " if code == 4 else "error: ")
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--seeds", "1..1", "--nodes", "4", "--output", str(out)]) == code
    [report] = [json.loads(l) for l in out.read_text().splitlines()]
    assert report["error"] == cli.failure(kind("planned"))[1] and report["total"] is None


def test_every_error_class_is_one_kind():
    """Each error rrst defines says who must act: fix the input, shrink
    it, or report a bug."""
    kinds = (InputError, TooLarge, InternalError)
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.RRSTError) and c is not errors.RRSTError]
    assert len(classes) == 6
    for c in classes:
        assert sum(issubclass(c, kind) for kind in kinds) == 1, c


def test_invalid_log_level_exits_2(inst_file, monkeypatch):
    monkeypatch.setenv("RRST_LOG", "chatty")
    assert run(["gen", "--nodes", "3", "--k", "0", "--seed", "1"]) == 2


def test_compare_seeds_reports(tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    assert run(["compare", "--seeds", "1..4", "--nodes", "5", "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(reports) == 4
    for r in reports:
        assert r["agree"] is True
        assert r["rank"] == 4 and r["elements"] >= 4 and r["error"] is None
        assert set(r) >= {"name", "elements", "rank", "k", "total", "oracle_total",
                          "agree", "wall_ms", "iterations", "rounds", "cuts"}
    # deterministic instance order: seeds ascending
    assert [r["name"] for r in reports] == sorted(
        (r["name"] for r in reports), key=lambda s: int(s.split("-")[0][4:])
    )


def test_compare_builtin_subset_smoke(tmp_path):
    # full builtin run is exercised by the acceptance gate; here spot-check CLI wiring
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--suite", "builtin-small", "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(reports) == 414
    assert all(r["agree"] is True for r in reports)


def test_compare_directory_suite(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    for seed in (1, 2):
        run(["gen", "--nodes", "4", "--k", "1", "--seed", str(seed),
             "--output", str(suite / f"s{seed}.json")])
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--suite", str(suite), "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["name"] for r in reports] == ["s1.json", "s2.json"]


def test_compare_disagreement_exits_3(tmp_path, monkeypatch):
    def wrong_oracle(inst):
        return BruteResult((), (), (), rat(0), rat(0), rat(10 ** 9), 0)

    monkeypatch.setattr(cli, "brute_force", wrong_oracle)
    assert run(["compare", "--seeds", "1..2", "--nodes", "4",
                "--output", str(tmp_path / "r.jsonl")]) == 3


def test_compare_seeds_solves_each_instance_as_it_is_drawn(tmp_path, monkeypatch):
    """`compare --seeds` draws one instance, solves it, and only then draws
    the next, so its memory does not grow with the seed range."""
    calls = []

    def logged(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(cli, "generate_instance", logged("gen", cli.generate_instance))
    monkeypatch.setattr(cli, "solve", logged("solve", cli.solve))
    assert run(["compare", "--seeds", "1..4", "--nodes", "5", "--no-oracle",
                "--output", str(tmp_path / "r.jsonl")]) == 0
    assert calls == ["gen", "solve"] * 4


@pytest.mark.parametrize("plan, code", [(("large", "ok"), 2), (("large", "wrong"), 3),
                                        (("wrong", "bug", "large"), 4)])
def test_compare_exit_code_ranks_a_bug_over_a_disagreement_over_too_large(tmp_path, monkeypatch, plan, code):
    real, faults = cli.solve, iter(plan)

    def planned(inst):
        fault = next(faults)
        if fault == "large":
            raise TooLarge("planned")
        if fault == "bug":
            raise InternalError("planned")
        sol = real(inst)
        return sol._replace(total=sol.total + 1) if fault == "wrong" else sol

    monkeypatch.setattr(cli, "solve", planned)
    assert run(["compare", "--seeds", f"1..{len(plan)}", "--nodes", "4",
                "--output", str(tmp_path / "r.jsonl")]) == code


def test_compare_oracle_skipped_past_its_limit(tmp_path, monkeypatch):
    """An instance past the oracle's enumeration bound is solved and
    reported with the oracle skipped; the run still exits 0."""
    monkeypatch.setattr(oracle, "PAIR_SCAN_LIMIT", 0)
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--seeds", "1..2", "--nodes", "5", "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(reports) == 2
    for r in reports:
        assert r["error"].startswith("oracle skipped: TooLarge: ")
        assert r["total"] is not None
        assert r["oracle_total"] is None and r["agree"] is None


def test_compare_directory_suite_reads_either_kind(tmp_path, inst_file):
    """A directory holding a tree document and a partition document is
    compared as one suite: each line names its elements and rank."""
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a-tree.json").write_bytes(inst_file.read_bytes())
    (suite / "b-partition.json").write_text(json.dumps({
        "family": "partition", "k": 1,
        "parts": [{"elements": [0, 1, 2], "cap": 1}, {"elements": [3, 4, 5], "cap": 2}],
        "costs": [{"id": e, "C": (3 * e) % 5, "c": (2 * e + 1) % 4, "d": e % 3} for e in range(6)]}))
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--suite", str(suite), "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    tree = load_instance(inst_file)
    assert [(r["name"], r["elements"], r["rank"], r["k"]) for r in reports] == [
        ("a-tree.json", len(tree.costs.C), 4, 1), ("b-partition.json", 6, 3, 1)]
    assert all(r["agree"] is True and r["error"] is None for r in reports)


def test_compare_skips_an_oracle_past_its_basis_bound(tmp_path):
    """The oracle's one bound is on the bases its pair scan takes: a
    21-element uniform matroid of rank 3 (1,330 bases) is checked, and a
    30-element one (4,060 bases) is solved and reported with the oracle
    skipped, as a tree past that bound is."""
    suite = tmp_path / "suite"
    suite.mkdir()
    for m in (21, 30):
        (suite / f"uniform{m}.json").write_text(json.dumps({
            "family": "uniform", "elements": list(range(m)), "rank": 3, "k": 1,
            "costs": [{"id": e, "C": e % 7, "c": e % 5, "d": e % 3} for e in range(m)]}))
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--suite", str(suite), "--output", str(out)]) == 0
    checked, skipped = [json.loads(l) for l in out.read_text().splitlines()]
    assert checked["agree"] is True and checked["error"] is None
    assert skipped["error"] == "oracle skipped: TooLarge: over 2236 bases: their pairs exceed 5000000"
    assert skipped["total"] is not None and skipped["agree"] is None


def test_compare_no_oracle(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--seeds", "1..3", "--nodes", "5", "--no-oracle",
                "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(r["oracle_total"] is None and r["agree"] is None for r in reports)


def test_compare_requires_a_source():
    assert run(["compare"]) == 2
    assert run(["compare", "--seeds", "1..2"]) == 2  # missing --nodes
    assert run(["compare", "--seeds", "1..2", "--nodes", "0"]) == 2
    assert run(["compare", "--seeds", "oops", "--nodes", "4"]) == 2


def test_compare_empty_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["compare", "--suite", str(empty)]) == 2


def test_lp_dump_dir(tmp_path, inst_file):
    """The one solve option writes the program and leaves the solution
    document as it is, byte for byte."""
    dump, plain, dumped = tmp_path / "lps", tmp_path / "sol.json", tmp_path / "sol-lp.json"
    assert run(["solve", "--input", str(inst_file), "--output", str(plain)]) == 0
    assert run(["solve", "--input", str(inst_file), "--output", str(dumped),
                "--lp-dump-dir", str(dump)]) == 0
    assert list(dump.glob("*.lp.txt"))
    assert dumped.read_bytes() == plain.read_bytes()


def test_lp_dump_dir_without_an_lp(tmp_path):
    """With no overlap owed (k = n - 1) no LP is built, so nothing is
    written, not even the directory."""
    inst, dump = tmp_path / "inst.json", tmp_path / "lps"
    assert run(["gen", "--nodes", "5", "--k", "4", "--seed", "7", "--output", str(inst)]) == 0
    assert run(["solve", "--input", str(inst), "--output", str(tmp_path / "sol.json"),
                "--lp-dump-dir", str(dump)]) == 0
    assert not dump.exists()


def test_lp_dump_dir_matroid(tmp_path, matroid_file):
    dump = tmp_path / "lps"
    assert run(["solve", "--input", str(matroid_file), "--output", str(tmp_path / "sol.json"),
                "--lp-dump-dir", str(dump)]) == 0
    text = (dump / "relaxation.lp.txt").read_text()
    assert text.startswith("min ") and "r1: 1 b0 + 1 b1 + 1 b2 + 1 b3 == 1\n" in text
