"""Command-line surface: subcommands, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from rrst import cli, oracle, sides
from rrst.errors import InternalError
from rrst.oracle import BruteResult
from rrst.rational import rat


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
    assert run(["oracle", "--input", str(inst_file), "--prune"]) == 0
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
    assert run(["solve", "--input", str(matroid_file), "--matroid",
                "--output", str(sol)]) == 0
    assert run(["verify", "--instance", str(matroid_file), "--solution", str(sol),
                "--matroid"]) == 0
    capsys.readouterr()
    assert run(["oracle", "--input", str(matroid_file), "--matroid"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == json.loads(sol.read_text())["total"]


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
    assert run(["solve", "--input", str(bad), "--matroid"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


MALFORMED_JSON = {
    "deeply nested": ("[" * 100_000 + "]" * 100_000).encode(),
    "not UTF-8": '{"nodes": 2, "k": 0, "edges": [], "note": "caf\u00e9"}'.encode("latin-1"),
}


@pytest.mark.parametrize("content", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
@pytest.mark.parametrize("command", ["solve", "solve --matroid", "verify --solution", "oracle"])
def test_malformed_json_exits_2(tmp_path, inst_file, command, content, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "verify --solution":
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
    assert "X not spanning" in capsys.readouterr().err.splitlines()[0]


INVALID_INSTANCES = {
    "disconnected tree": ([], {"nodes": 3, "k": 0, "edges": [
        {"id": 0, "u": 0, "v": 1, "C": 1, "c": 1, "d": 1}]}),
    "negative cost": ([], {"nodes": 2, "k": 0, "edges": [
        {"id": 0, "u": 0, "v": 1, "C": -1, "c": 1, "d": 1}]}),
    "k above rank": (["--matroid"], {
        "family": "uniform", "elements": [0, 1], "rank": 1, "k": 2,
        "costs": [{"id": i, "C": 1, "c": 1, "d": 1} for i in range(2)]}),
}


@pytest.mark.parametrize("flags, doc", INVALID_INSTANCES.values(), ids=INVALID_INSTANCES.keys())
def test_verify_invalid_instance_exits_2(tmp_path, flags, doc, capsys):
    """An instance that `solve` rejects is an input error for `verify`
    too, not a failed check of the solution."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(doc))
    sol.write_text(json.dumps({"X": [0], "Y": [0], "Z": [0], "total": "3"}))
    assert run(["solve", "--input", str(inst)] + flags) == 2
    capsys.readouterr()
    assert run(["verify", "--instance", str(inst), "--solution", str(sol)] + flags) == 2
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

    monkeypatch.setattr(cli, "solve_rrst", boom)
    assert run(["solve", "--input", str(inst_file)]) == 4


def test_malformed_program_exits_4(inst_file, monkeypatch, capsys):
    """A row the solver cannot take is a bug in the solver, not bad input."""
    def fractional_cut(self, point, unit):
        return tuple(self.element_ids), Fraction(-1, 2)

    monkeypatch.setattr(sides.GraphSide, "separate", fractional_cut)
    assert run(["solve", "--input", str(inst_file)]) == 4
    assert "MalformedProgram" in capsys.readouterr().err


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
        assert r["n"] == 5 and r["error"] is None
        assert set(r) >= {"name", "n", "m", "k", "total", "oracle_total",
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
    def wrong_oracle(inst, prune=False):
        return BruteResult((), (), (), rat(0), rat(0), rat(10 ** 9), 0)

    monkeypatch.setattr(cli, "brute_force_rrst", wrong_oracle)
    assert run(["compare", "--seeds", "1..2", "--nodes", "4",
                "--output", str(tmp_path / "r.jsonl")]) == 3


def test_compare_oracle_skipped_past_its_limit(tmp_path, monkeypatch):
    """An instance past the oracle's enumeration bound is solved and
    reported with the oracle skipped; the run still exits 0."""
    monkeypatch.setattr(oracle, "ENUMERATION_TREE_LIMIT", 1)
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--seeds", "1..2", "--nodes", "5", "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(reports) == 2
    for r in reports:
        assert r["error"].startswith("oracle skipped: TooManyTrees: ")
        assert r["total"] is not None
        assert r["oracle_total"] is None and r["agree"] is None


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
