"""Tests of the benchmark itself, at the tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

Faults are injected only through the benchmark's own pinned data (a copy
of ``expected.json``); the package under ``src/`` is never patched.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, tmp_path, workload, trace=0, expected=None):
    """Run one tiny workload in-process; returns (result line, table text)."""
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--size", "tiny", "--out", str(tmp_path / "out")]
    if expected is not None:
        argv += ["--expected", str(expected)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def pinned_copy(tmp_path, mutate) -> Path:
    data = json.loads((BENCH / "expected.json").read_text())
    mutate(data)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, tmp_path, workload, trace):
    result, table = bench(capsys, tmp_path, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        row = next(line for line in table.splitlines() if line.startswith(m["name"] + " "))
        assert f" {m['unit']} " in row
    assert "ops_failed_ratio" in table
    if not trace:
        for kind in ("invariants", "derivations", "completeness", "biderivations",
                     "commuting", "factor"):
            assert any(line.startswith(f"{kind}_s ") and " s " in line
                       for line in table.splitlines())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    record = json.loads(next((tmp_path / "out").glob("run-*.json")).read_text())
    for key in ("python", "nproc", "git_sha", "seed", "passes"):
        assert key in record
    if trace:
        assert next((tmp_path / "out").glob("spans-*.jsonl")).stat().st_size > 0


def test_battery_counts_its_by_design_failures(capsys, tmp_path):
    result, _ = bench(capsys, tmp_path, "battery")
    passes = result["attempted"] // 115
    assert result["attempted"] == 115 * passes
    assert result["failed"] == 2 * passes
    assert result["correct"] is True


def test_changed_battery_verdict_counts_as_failed(capsys, tmp_path):
    base, _ = bench(capsys, tmp_path, "battery")

    def flip(data):
        lines = data["battery"]["sections"]["fixtures"]
        lines[0] = "FAIL" + lines[0][4:]
    result, table = bench(capsys, tmp_path, "battery", expected=pinned_copy(tmp_path, flip))
    passes = base["attempted"] // 115
    assert result["attempted"] == base["attempted"]
    assert result["failed"] == base["failed"] + passes
    assert result["correct"] is False
    assert "changed item" in table


def test_missing_battery_item_counts_as_failed(capsys, tmp_path):
    base, _ = bench(capsys, tmp_path, "battery")

    def add(data):
        data["battery"]["sections"]["fixtures"].append("PASS  an item the battery lacks")
    result, table = bench(capsys, tmp_path, "battery", expected=pinned_copy(tmp_path, add))
    passes = base["attempted"] // 115
    assert result["attempted"] == base["attempted"] + passes
    assert result["failed"] == base["failed"] + passes
    assert "missing item" in table


def test_wrong_pinned_digest_counts_as_failed(capsys, tmp_path):
    def corrupt(data):
        data["solvable-sweep"]["tiny"]["solvable-4"]["derivation_space"] = "0" * 32
    result, table = bench(capsys, tmp_path, "solvable-sweep",
                          expected=pinned_copy(tmp_path, corrupt))
    passes = result["attempted"] // 20
    assert result["failed"] == passes
    assert result["correct"] is False
    assert "pinned digest" in table


def test_traced_self_times_add_up_to_the_traced_pass(capsys, tmp_path):
    result, _ = bench(capsys, tmp_path, "solvable-sweep", trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    total = m["trace.self_sum_s"] + m["trace.bookkeeping_s"]
    assert abs(total - m["trace.wall_s"]) <= 0.01 + 0.05 * m["trace.wall_s"]
    assert m["linalg.equations"] > 0 and 0 < m["linalg.rank_ratio"] <= 1


def _solvable(pkg, n=4):
    return pkg.catalog.example_solvable(n)


def test_certificate_replay_rejects_a_wrong_certificate():
    pkg = run.import_package(ROOT / "src")
    t = _solvable(pkg)
    b = pkg.BilinearTensor(t.c)
    zero = pkg.Subspace.zero(t.dim)
    res = pkg.factor_right_modulo(t, b, zero)
    assert not res.feasible
    assert checks.factor_problems(pkg, t, b, zero, res) == []
    i, j, k = res.certificate.equation
    earlier = dataclasses.replace(res.certificate, equation=(i, j, k - 1) if k else (i, j - 1, k))
    moved = dataclasses.replace(res, certificate=earlier)
    assert checks.factor_problems(pkg, t, b, zero, moved)


def test_sparse_biderivation_check_agrees_with_the_library():
    pkg = run.import_package(ROOT / "src")
    alg = pkg.algebra
    for t in (pkg.catalog.sl2(), pkg.catalog.example_affine_two(), _solvable(pkg)):
        n = t.dim
        for v in pkg.biderivation_space(t).basis_vectors():
            assert checks.is_biderivation_sparse(t, v)
            bumped = list(v)
            bumped[0] += 1
            assert checks.is_biderivation_sparse(t, bumped) == pkg.is_biderivation(
                t, alg.vec_to_bilinear(bumped, n))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "battery",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
