"""Command-line interface.

Exit codes: 0 when the requested computation succeeds with nothing failing,
1 when it reports failures (identity violations, infeasible factorizations,
failed verification items), 2 for usage, file, or format errors. The --json
flag switches to a machine-readable rendering of the same facts the human
output shows.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import catalog, verification
from .algebra import (
    StructureTensor,
    center,
    is_lie,
    left_center,
    leibniz_kernel,
    quotient,
    vec_to_map,
)
from .biderivations import (
    biderivation_space,
    factor_left_modulo,
    factor_right_modulo,
    left_biderivation_space,
    loday_biderivation_space,
    right_biderivation_space,
    symmetric_skew_spans,
)
from .derivations import (
    derivation_space,
    inner_derivation_space,
    is_complete_def1,
    is_complete_def2,
)
from .fileformat import (
    FileFormatError,
    parse_algebra,
    parse_bilinear,
    serialize_algebra,
)
from .linalg import Matrix, Subspace


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FileFormatError(None, f"cannot read {path}: {exc.strerror}") from None


def _load_algebra(path: str) -> StructureTensor:
    return parse_algebra(_read_text(path))


def _rat(x: Fraction) -> str:
    return str(x)


def _vec(v) -> list[str]:
    return [_rat(x) for x in v]


def _matrix(m: Matrix) -> list[list[str]]:
    return [_vec(m.row(r)) for r in range(m.rows)]


def _subspace(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": [_vec(v) for v in s.basis_vectors()]}


# ---------------------------------------------------------------------------
# command handlers: each returns (facts dict, failed flag)


def _cmd_validate(args) -> tuple[dict, bool]:
    t = _load_algebra(args.file)
    violations = [{
        "triple": [t.label(v.i), t.label(v.j), t.label(v.k)],
        "defect": _vec(v.defect),
    } for v in t.leibniz_violations]
    facts = {"dim": t.dim, "valid": not violations, "violations": violations}
    return facts, bool(violations)


def _render_validate(facts) -> str:
    if facts["valid"]:
        return f"PASS  left Leibniz identity holds (dim {facts['dim']})"
    lines = [f"FAIL  left Leibniz identity violated in {len(facts['violations'])} basis triples"]
    for v in facts["violations"][:10]:
        lines.append(f"      at ({', '.join(v['triple'])}): defect {v['defect']}")
    if len(facts["violations"]) > 10:
        lines.append(f"      ... and {len(facts['violations']) - 10} more")
    return "\n".join(lines)


def _cmd_invariants(args) -> tuple[dict, bool]:
    t = _load_algebra(args.file)
    t.require_validated()
    leib = leibniz_kernel(t)
    q = quotient(t, leib)
    facts = {
        "dim": t.dim,
        "is_lie": is_lie(t),
        "leibniz_kernel": _subspace(leib),
        "left_center": _subspace(left_center(t)),
        "center": _subspace(center(t)),
        "quotient_dim": q.tensor.dim,
        "quotient_table": serialize_algebra(q.tensor).splitlines(),
    }
    return facts, False


def _render_invariants(facts) -> str:
    lines = [f"dim {facts['dim']}  (Lie: {'yes' if facts['is_lie'] else 'no'})"]
    for key, title in (("leibniz_kernel", "Leibniz kernel"),
                       ("left_center", "left center"),
                       ("center", "center")):
        sub = facts[key]
        lines.append(f"{title}: dim {sub['dim']}")
        for v in sub["basis"]:
            lines.append(f"    [{', '.join(v)}]")
    lines.append(f"quotient by the kernel: dim {facts['quotient_dim']}")
    for row in facts["quotient_table"]:
        lines.append(f"    {row}")
    return "\n".join(lines)


def _cmd_derivations(args) -> tuple[dict, bool]:
    t = _load_algebra(args.file)
    t.require_validated()
    der = derivation_space(t)
    inner = inner_derivation_space(t)
    facts = {
        "derivation_dim": der.dim,
        "inner_dim": inner.dim,
        "derivation_basis": [_matrix(vec_to_map(v, t.dim)) for v in der.basis_vectors()],
    }
    return facts, False


def _render_derivations(facts) -> str:
    lines = [f"derivations: dim {facts['derivation_dim']}  "
             f"(inner: dim {facts['inner_dim']})"]
    for idx, mat in enumerate(facts["derivation_basis"], start=1):
        lines.append(f"basis #{idx}:")
        for row in mat:
            lines.append("    [" + "  ".join(row) + "]")
    return "\n".join(lines)


def _cmd_biderivations(args) -> tuple[dict, bool]:
    t = _load_algebra(args.file)
    t.require_validated()
    space = biderivation_space(t)
    sym, skew = symmetric_skew_spans(space, t.dim)
    facts = {
        "left_dim": left_biderivation_space(t).dim,
        "right_dim": right_biderivation_space(t).dim,
        "biderivation_dim": space.dim,
        "loday_dim": loday_biderivation_space(t).dim,
        "symmetric_dim": sym.dim,
        "skew_dim": skew.dim,
    }
    return facts, False


def _render_biderivations(facts) -> str:
    return "\n".join([
        f"left-slice space:  dim {facts['left_dim']}",
        f"right-slice space: dim {facts['right_dim']}",
        f"biderivations:     dim {facts['biderivation_dim']}"
        f"  (symmetric part {facts['symmetric_dim']}, skew part {facts['skew_dim']})",
        f"Loday-style space: dim {facts['loday_dim']}",
    ])


def _completeness_facts(t: StructureTensor) -> dict:
    rep1 = is_complete_def1(t)
    rep2 = is_complete_def2(t)
    facts = {
        "def1": {"verdict": rep1.verdict},
        "def2": {"verdict": rep2.verdict},
    }
    if rep1.center_obstruction is not None:
        facts["def1"]["quotient_center_dim"] = rep1.center_obstruction.dim
    if rep1.derivation_obstruction is not None:
        facts["def1"]["offending_derivation"] = _matrix(rep1.derivation_obstruction)
    if rep2.center_obstruction is not None:
        facts["def2"]["center_dim"] = rep2.center_obstruction.dim
    if rep2.derivation_obstruction is not None:
        facts["def2"]["outer_derivation"] = _matrix(rep2.derivation_obstruction)
    return facts


def _cmd_completeness(args) -> tuple[dict, bool]:
    t = _load_algebra(args.file)
    t.require_validated()
    return _completeness_facts(t), False


def _render_completeness(facts) -> str:
    lines = []
    d1 = facts["def1"]
    lines.append(f"kernel-quotient completeness (def1): "
                 f"{'yes' if d1['verdict'] else 'NO'}")
    if "quotient_center_dim" in d1:
        lines.append(f"    obstruction: quotient center has dim {d1['quotient_center_dim']}")
    if "offending_derivation" in d1:
        lines.append("    obstruction: derivation not inner modulo the kernel:")
        for row in d1["offending_derivation"]:
            lines.append("        [" + "  ".join(row) + "]")
    d2 = facts["def2"]
    lines.append(f"inner-derivation completeness (def2): "
                 f"{'yes' if d2['verdict'] else 'NO'}")
    if "center_dim" in d2:
        lines.append(f"    obstruction: center has dim {d2['center_dim']}")
    if "outer_derivation" in d2:
        lines.append("    obstruction: outer derivation:")
        for row in d2["outer_derivation"]:
            lines.append("        [" + "  ".join(row) + "]")
    return "\n".join(lines)


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _certificate_facts(cert) -> dict:
    return {
        "failing_equation": _one_based(cert.equation),
        "defect": _rat(cert.defect),
        "steps": [{
            "equation": _one_based(step.equation),
            "unknown": _one_based(step.unknown),
            "value": None if step.value is None else _rat(step.value),
        } for step in cert.steps],
        "used_equations": [_one_based(e) for e in cert.used_equations],
    }


def _factor_side_facts(res) -> dict:
    facts: dict = {"feasible": res.feasible, "checks": dict(res.checks)}
    if res.phi is not None:
        facts["map"] = _matrix(res.phi)
    if res.residual is not None:
        facts["residual"] = {f"{i + 1},{j + 1}": [f"{k + 1}:{x}" for k, x in terms]
                             for (i, j), terms in res.residual.values.items()}
    if res.certificate is not None:
        facts["certificate"] = _certificate_facts(res.certificate)
    return facts


def _render_factor_side(side: str, facts: dict) -> list[str]:
    lines = [f"{side} factorization: {'feasible' if facts['feasible'] else 'INFEASIBLE'}"]
    if "map" in facts:
        lines.append("    map:")
        for row in facts["map"]:
            lines.append("        [" + "  ".join(row) + "]")
    if "residual" in facts:
        if facts["residual"]:
            lines.append("    residual entries:")
            for pos, terms in facts["residual"].items():
                lines.append(f"        ({pos}) -> {' '.join(terms)}")
        else:
            lines.append("    residual: zero")
    for name, ok in facts.get("checks", {}).items():
        lines.append(f"    check {name}: {'pass' if ok else 'FAIL'}")
    if "certificate" in facts:
        cert = facts["certificate"]
        lines.append(f"    certificate: contradiction at equation {tuple(cert['failing_equation'])} "
                     f"with defect {cert['defect']}")
        for step in cert["steps"]:
            lines.append(f"        equation {tuple(step['equation'])} pins "
                         f"coefficient {tuple(step['unknown'])} = {step['value']}")
        lines.append(f"        equations used: "
                     f"{', '.join(str(tuple(e)) for e in cert['used_equations'])}")
    return lines


def _cmd_factor(args) -> tuple[dict, bool]:
    t = _load_algebra(args.file)
    t.require_validated()
    b = parse_bilinear(_read_text(args.tensor))
    if b.dim != t.dim:
        raise FileFormatError(None, f"tensor dim {b.dim} differs from algebra dim {t.dim}")
    modulus = Subspace.zero(t.dim) if args.modulus == "zero" else leibniz_kernel(t)
    facts: dict = {"modulus": args.modulus}
    failed = False
    if args.side in ("left", "both"):
        res = factor_left_modulo(t, b, modulus)
        facts["left"] = _factor_side_facts(res)
        failed = failed or not res.feasible
    if args.side in ("right", "both"):
        res = factor_right_modulo(t, b, modulus)
        facts["right"] = _factor_side_facts(res)
        failed = failed or not res.feasible
    return facts, failed


def _render_factor(facts) -> str:
    lines = [f"modulus: {facts['modulus']}"]
    for side in ("left", "right"):
        if side in facts:
            lines.extend(_render_factor_side(side, facts[side]))
    return "\n".join(lines)


def _cmd_catalog(args) -> tuple[dict, bool]:
    if args.list:
        return {"names": sorted(catalog.BUILDERS)}, False
    if args.name is None:
        raise FileFormatError(None, "catalog requires a name (or --list)")
    if args.name not in catalog.BUILDERS:
        known = ", ".join(sorted(catalog.BUILDERS))
        raise FileFormatError(None, f"unknown catalog name {args.name!r} (known: {known})")
    builder = catalog.BUILDERS[args.name]
    try:
        t = builder(args.n) if args.n is not None else builder()
    except TypeError:
        raise FileFormatError(
            None, f"catalog entry {args.name!r} "
            + ("takes no --n parameter" if args.n is not None else "requires --n")) from None
    return {"name": args.name, "dim": t.dim, "file": serialize_algebra(t)}, False


def _render_catalog(facts) -> str:
    if "names" in facts:
        return "\n".join(facts["names"])
    return facts["file"].rstrip("\n")


def _cmd_verify_paper(args) -> tuple[dict, bool]:
    items = verification.run_all()
    facts = {"items": [{
        "name": item.name,
        "passed": item.passed,
        "detail": item.detail,
    } for item in items]}
    return facts, not all(item.passed for item in items)


def _render_verify_paper(facts) -> str:
    return "\n".join(verification.CheckItem(**item).render() for item in facts["items"])


_HANDLERS = {
    "validate": (_cmd_validate, _render_validate),
    "invariants": (_cmd_invariants, _render_invariants),
    "derivations": (_cmd_derivations, _render_derivations),
    "biderivations": (_cmd_biderivations, _render_biderivations),
    "completeness": (_cmd_completeness, _render_completeness),
    "factor": (_cmd_factor, _render_factor),
    "catalog": (_cmd_catalog, _render_catalog),
    "verify-paper": (_cmd_verify_paper, _render_verify_paper),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact computations on left Leibniz algebras given by "
                    "rational structure constants.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("file", help="algebra file ('-' for stdin)")

    with_file(sub.add_parser("validate", help="check the left Leibniz identity"))
    with_file(sub.add_parser("invariants",
                             help="kernel, centers, and the quotient table"))
    with_file(sub.add_parser("derivations", help="derivation and inner spaces"))
    with_file(sub.add_parser("biderivations",
                             help="slice spaces, the full space, Loday variant, "
                                  "symmetric/skew split"))
    with_file(sub.add_parser("completeness", help="both completeness verdicts"))

    factor = sub.add_parser("factor",
                            help="factor a bilinear tensor through the bracket")
    with_file(factor)
    factor.add_argument("--tensor", required=True,
                        help="bilinear tensor file ('-' for stdin)")
    factor.add_argument("--modulus", choices=("zero", "leib"), default="zero",
                        help="residual subspace: exact (zero) or modulo the "
                             "Leibniz kernel (leib)")
    factor.add_argument("--side", choices=("left", "right", "both"), default="both")

    cat = sub.add_parser("catalog", help="emit a named catalog algebra")
    cat.add_argument("name", nargs="?", help="catalog entry name")
    cat.add_argument("--n", type=int, default=None,
                     help="parameter for parametric families")
    cat.add_argument("--list", action="store_true", help="list catalog names")

    sub.add_parser("verify-paper",
                   help="run the full verification battery of pinned facts")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, renderer = _HANDLERS[args.command]
    try:
        facts, failed = handler(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(facts, indent=2))
    else:
        print(renderer(facts))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
