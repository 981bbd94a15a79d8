"""End-to-end command-line behavior: exit codes, renderings, JSON parity.

golden/cli_outputs.json pins the exact stdout of ``verify-paper`` and of the
per-algebra commands on every fixture. After an intended output change,
rewrite it with ``PYTHONPATH=src python tests/test_cli.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from leibnizalg import catalog
from leibnizalg.cli import main
from leibnizalg.fileformat import parse_algebra, serialize_algebra

NOT_LEIBNIZ = "dim 2\nbracket 1 1 = 2:1\nbracket 2 2 = 1:1\n"
GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_outputs.json"
FIXTURE_COMMANDS = ("validate", "invariants", "derivations", "biderivations",
                    "completeness")


def _fixture_outputs(directory: Path) -> dict[str, str]:
    """Stdout of every fixture command, text and --json, on every fixture,
    keyed "[--json ]command fixture-name"."""
    outputs = {}
    for fx in catalog.load_fixtures():
        path = directory / f"{fx.name}.alg"
        path.write_text(serialize_algebra(fx.build()))
        for command in FIXTURE_COMMANDS:
            for flags in ([], ["--json"]):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main([*flags, command, str(path)]) == 0
                outputs[" ".join([*flags, command, fx.name])] = buf.getvalue()
    return outputs


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture
def sl2_file(tmp_path):
    path = tmp_path / "sl2.alg"
    path.write_text(serialize_algebra(catalog.sl2()))
    return str(path)


@pytest.fixture
def heis_file(tmp_path):
    path = tmp_path / "heis.alg"
    path.write_text(serialize_algebra(catalog.heisenberg()))
    return str(path)


def test_validate_passes_on_a_leibniz_table(sl2_file, capsys):
    assert main(["validate", sl2_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "dim 3" in out


def test_validate_fails_with_labeled_triples(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(NOT_LEIBNIZ)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "defect" in out


def test_validate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_algebra(catalog.sl2())))
    assert main(["validate", "-"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_missing_file_is_a_usage_error(capsys):
    assert main(["validate", "/nonexistent/path.alg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_malformed_file_reports_the_line(tmp_path, capsys):
    path = tmp_path / "broken.alg"
    path.write_text("dim 2\nbracket 1 5 = 1:1\n")
    assert main(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_invariants_on_sl2(sl2_file, capsys):
    assert main(["invariants", sl2_file]) == 0
    out = capsys.readouterr().out
    assert "Lie: yes" in out
    assert "Leibniz kernel: dim 0" in out
    assert "quotient by the kernel: dim 3" in out


def test_invariants_refuses_invalid_algebras(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(NOT_LEIBNIZ)
    assert main(["invariants", str(path)]) == 2
    assert "not a left Leibniz algebra" in capsys.readouterr().err


def test_identity_error_renders_rationals_like_the_cli(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("dim 2\nbracket 1 1 = 2:1\nbracket 2 1 = 2:1\n")
    assert main(["invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "identity fails at (e1,e1,e1) with defect [0, -1]" in err
    assert "Fraction" not in err


def test_derivations_on_heisenberg(heis_file, capsys):
    assert main(["derivations", heis_file]) == 0
    out = capsys.readouterr().out
    assert "derivations: dim 6" in out
    assert "inner: dim 2" in out
    assert out.count("basis #") == 6


def test_biderivations_on_sl2(sl2_file, capsys):
    assert main(["biderivations", sl2_file]) == 0
    out = capsys.readouterr().out
    assert "biderivations:     dim 1" in out
    assert "symmetric part 0, skew part 1" in out
    assert "Loday-style space: dim 1" in out


def test_completeness_verdicts_are_facts_not_failures(heis_file, capsys):
    # A non-complete algebra is a successful computation, not an error.
    assert main(["completeness", heis_file]) == 0
    out = capsys.readouterr().out
    assert "def1): NO" in out
    assert "def2): NO" in out
    assert "obstruction" in out


def test_factor_feasible_bracket_on_sl2(sl2_file, tmp_path, capsys):
    t = catalog.sl2()
    tensor = tmp_path / "brk.tensor"
    lines = ["dim 3"]
    for i in range(3):
        for j in range(3):
            v = t.bracket_basis(i, j)
            terms = " ".join(f"{k + 1}:{v[k]}" for k in range(3) if v[k])
            if terms:
                lines.append(f"value {i + 1} {j + 1} = {terms}")
    tensor.write_text("\n".join(lines) + "\n")
    assert main(["factor", sl2_file, "--tensor", str(tensor), "--side", "both"]) == 0
    out = capsys.readouterr().out
    assert out.count("feasible") == 2
    assert "INFEASIBLE" not in out


def test_factor_infeasible_prints_a_certificate(tmp_path, capsys):
    alg = tmp_path / "aff1.alg"
    alg.write_text(serialize_algebra(catalog.example_affine_one()))
    tensor = tmp_path / "F.tensor"
    tensor.write_text("dim 3\nvalue 3 3 = 3:1\n")  # F(v,v) = v
    rc = main(["factor", str(alg), "--tensor", str(tensor), "--side", "left"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out
    assert "certificate: contradiction at equation" in out
    assert "pins coefficient" in out


def test_factor_modulo_kernel_reports_residual_checks(tmp_path, capsys):
    alg = tmp_path / "aff1.alg"
    alg.write_text(serialize_algebra(catalog.example_affine_one()))
    tensor = tmp_path / "F.tensor"
    tensor.write_text("dim 3\nvalue 3 3 = 3:1\n")
    rc = main(["factor", str(alg), "--tensor", str(tensor),
               "--modulus", "leib", "--side", "left"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    assert "FAIL" not in out


def test_factor_dimension_mismatch(sl2_file, tmp_path, capsys):
    tensor = tmp_path / "small.tensor"
    tensor.write_text("dim 2\nvalue 1 1 = 1:1\n")
    assert main(["factor", sl2_file, "--tensor", str(tensor)]) == 2
    assert "differs" in capsys.readouterr().err


def test_catalog_list_names(capsys):
    assert main(["catalog", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "sl2" in names
    assert "example-solvable" in names
    assert names == sorted(names)


def test_catalog_emits_a_parseable_file(capsys):
    assert main(["catalog", "sl2"]) == 0
    text = capsys.readouterr().out
    assert parse_algebra(text) == catalog.sl2()


def test_catalog_parametric_family(capsys):
    assert main(["catalog", "example-solvable", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert parse_algebra(text) == catalog.example_solvable(4)


def test_catalog_parameter_misuse(capsys):
    assert main(["catalog", "sl2", "--n", "3"]) == 2
    assert "takes no --n" in capsys.readouterr().err
    assert main(["catalog", "abelian"]) == 2
    assert "requires --n" in capsys.readouterr().err
    assert main(["catalog", "no-such-algebra"]) == 2
    assert "unknown catalog name" in capsys.readouterr().err
    assert main(["catalog"]) == 2
    assert "requires a name" in capsys.readouterr().err


def test_json_output_matches_the_text_facts(sl2_file, capsys):
    assert main(["--json", "invariants", sl2_file]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["is_lie"] is True
    assert facts["leibniz_kernel"]["dim"] == 0
    assert facts["quotient_dim"] == 3


def test_json_derivation_basis_entries_are_exact_strings(heis_file, capsys):
    assert main(["--json", "derivations", heis_file]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["derivation_dim"] == 6
    assert len(facts["derivation_basis"]) == 6
    for mat in facts["derivation_basis"]:
        for row in mat:
            for entry in row:
                assert isinstance(entry, str)


def test_verify_paper_exits_nonzero_while_two_items_fail(capsys):
    # Two items fail by design (the pinned completeness claim the computation
    # contradicts), and the trailing roll-up line fails with them.
    rc = main(["verify-paper"])
    out = capsys.readouterr().out
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert rc == 1
    assert len(failing) == 3
    assert failing[-1].startswith("FAIL  all verification items pass")
    assert all("solvable" in line for line in failing[:-1])
    assert out == _golden()["verify-paper"]


def test_fixture_commands_match_the_golden_outputs(tmp_path):
    # Canonical bases are unique, so every line is pinned byte for byte.
    golden = _golden()
    outputs = _fixture_outputs(tmp_path)
    assert set(outputs) == set(golden) - {"verify-paper"}
    for key, out in outputs.items():
        assert out == golden[key], key


def test_verify_paper_json_mirrors_the_text_items(capsys):
    rc = main(["--json", "verify-paper"])
    assert rc == 1
    facts = json.loads(capsys.readouterr().out)
    names = [item["name"] for item in facts["items"]]
    assert len(names) == len(set(names)), "item names must be unique"
    bad = [item for item in facts["items"] if not item["passed"]]
    assert [item["name"] for item in bad] == [
        "fixture example-solvable-5: complete_def2",
        "solvable: NOT complete under the inner-derivation definition",
        "all verification items pass",
    ]


if __name__ == "__main__":
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["verify-paper"])
    with tempfile.TemporaryDirectory() as tmp:
        golden = {"verify-paper": stdout.getvalue(), **_fixture_outputs(Path(tmp))}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
