"""Smoke test of the benchmark harness at tiny sizes; runs in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
                  "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name


def test_times_are_scaled_to_the_reference_speed():
    meter = run.SpeedMeter()
    ref = run.SAMPLE_REF_MS / 1e3
    # (start, seconds); the last sample was interrupted and counts as twice
    # the median, 2 * 2 * ref
    meter.samples = [(0.0, ref), (0.5, 2 * ref), (1.0, 2 * ref), (1.5, 100 * ref)]
    scaled = meter.scaled([(0.4, 1.1), (0.1, 0.2), (1.2, 1.6)])
    assert scaled == pytest.approx([(0.7 - 4 * ref) / 2, 0.1 / 1.5, (0.4 - 100 * ref) / 4])


def test_speed_samples_are_taken_while_the_meter_is_on():
    meter = run.SpeedMeter()
    with meter:
        start = run.perf_counter()
        while run.perf_counter() - start < 0.1:
            sum(range(1000))
    assert len(meter.samples) >= 5
    assert run.signal.getitimer(run.signal.ITIMER_REAL) == (0.0, 0.0)


def test_percentiles_are_harrell_davis_estimates():
    assert run.hd_quantile([5.0] * 7, 80) == pytest.approx(5.0)
    assert run.hd_quantile(list(range(1, 102)), 50) == pytest.approx(51)  # symmetric sample
    xs = [float(x) for x in range(1, 57)]
    assert 40 < run.hd_quantile(xs, 80) < 50


def _solved_item(workload="tree-mid"):
    rrst = run.import_rrst()
    reference = run.load_reference("tiny", workload)
    stratum, index = workloads.universe(workloads.WORKLOADS["tiny"][workload])[0]
    item = workloads.make_item(rrst, stratum, index)
    _, text, problems = run.operation(rrst, item, reference)
    assert problems == []
    return rrst, item, text, reference


def test_gate_rejects_corrupted_solutions():
    rrst, item, text, reference = _solved_item()
    assert run.self_check(rrst, [item], {item.key: text}, reference) == []
    inst = rrst.loads_instance(item.doc)
    wrong = {item.key: dict(reference[item.key], total=str(Fraction(reference[item.key]["total"]) + 1))}
    assert any("reference optimum" in p for p in run.check(rrst, item, inst, text, wrong))
    assert any("no reference" in p for p in run.check(rrst, item, inst, text, {}))


def test_failed_checks_make_the_run_exit_nonzero(monkeypatch, capsys, tmp_path):
    real = run.load_reference

    def shifted(scale, workload):
        return {k: dict(v, total=str(Fraction(v["total"]) + 1)) for k, v in real(scale, workload).items()}

    monkeypatch.setattr(run, "load_reference", shifted)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.main(["--workload", "tree-mid", "--seed", "1", "--seconds", "0.2", "--scale", "tiny"]) == 1
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert any(line.startswith("FAILED n5-i") for line in lines)


def _record(monkeypatch, directory, workload, seconds="0.2"):
    monkeypatch.setattr(run, "RESULTS", directory)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", seconds, "--scale", "tiny"]) == 0
    return json.loads((directory / f"tiny-{workload}-seed1-trace0.json").read_text())


def test_digest_covers_the_whole_sample_however_long_the_run(monkeypatch, tmp_path):
    short = _record(monkeypatch, tmp_path / "short", "tree-k0", seconds="0")
    long = _record(monkeypatch, tmp_path / "long", "tree-k0", seconds="0.5")
    assert short["attempted"] < long["attempted"]
    assert short["digest_documents"] == long["digest_documents"] > short["attempted"]
    assert short["digest"] == long["digest"]


def test_compare_flags_a_workload_missing_from_the_new_results(monkeypatch, tmp_path, capsys):
    for workload in ("tree-mid", "tree-greedy"):
        _record(monkeypatch, tmp_path / "base", workload)
    _record(monkeypatch, tmp_path / "new", "tree-mid")
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "base")]) == 0
    capsys.readouterr()
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 1
    assert "missing from the new results: tiny/tree-greedy" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "tree-mid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
