"""Command-line surface: subcommands, exit codes, determinism."""

import json

import pytest

from rrst import cli
from rrst.errors import InternalError
from rrst.oracle import BruteResult
from rrst.rational import rat


def run(argv):
    return cli.main(argv)


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


def test_solve_strict_and_exhaustive_flags(tmp_path, inst_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--input", str(inst_file), "--mode", "strict",
                "--separation", "exhaustive", "--cuts", "all", "--output", str(a)]) == 0
    assert run(["solve", "--input", str(inst_file), "--output", str(b)]) == 0
    assert json.loads(a.read_text())["total"] == json.loads(b.read_text())["total"]


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
    assert run(["solve", "--input", str(inst_file), "--mode", "bogus"]) == 2


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


def test_internal_failure_exits_4(inst_file, monkeypatch):
    def boom(*a, **kw):
        raise InternalError("deliberate breach")

    monkeypatch.setattr(cli, "solve_rrst", boom)
    assert run(["solve", "--input", str(inst_file)]) == 4


def test_pivot_limit_exits_2(inst_file, monkeypatch, capsys):
    monkeypatch.setattr("rrst.simplex._PIVOT_LIMIT", 0)
    assert run(["solve", "--input", str(inst_file)]) == 2
    assert "input too large" in capsys.readouterr().err


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


def test_compare_no_oracle(tmp_path):
    out = tmp_path / "r.jsonl"
    assert run(["compare", "--seeds", "1..3", "--nodes", "5", "--no-oracle",
                "--output", str(out)]) == 0
    reports = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(r["oracle_total"] is None and r["agree"] is None for r in reports)


def test_compare_requires_a_source():
    assert run(["compare"]) == 2
    assert run(["compare", "--seeds", "1..2"]) == 2  # missing --nodes
    assert run(["compare", "--seeds", "oops", "--nodes", "4"]) == 2


def test_compare_empty_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["compare", "--suite", str(empty)]) == 2


def test_lp_dump_dir(tmp_path, inst_file):
    dump = tmp_path / "lps"
    assert run(["solve", "--input", str(inst_file), "--lp-dump-dir", str(dump)]) == 0
    assert list(dump.glob("*.lp.txt"))
