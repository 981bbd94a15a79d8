"""Answer checks, run outside the timed region.

* ``digest`` hashes a canonical rendering of any library output (subspace
  bases, verdicts, factor maps, residuals, certificates).  Outputs on fixed
  inputs are compared with digests pinned in ``expected.json``.
* ``independent_problems`` checks outputs on seeded inputs by routes that
  do not go through the solver: the derivation predicate, a sparse
  evaluation of the biderivation identities, factor reproduction,
  certificate replay by a separate dense elimination, and the identity
  dim Inner = n - dim Z^l.
* ``battery_outcome`` compares ``verify-paper`` lines with the pinned list.
"""

from __future__ import annotations

import dataclasses
import hashlib
from fractions import Fraction


# ---------------------------------------------------------------------------
# canonical digests


def _canon(obj, out: list) -> None:
    kind = type(obj).__name__
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(repr(obj))
    elif isinstance(obj, Fraction):
        out.append(f"{obj.numerator}/{obj.denominator}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _canon(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for key in sorted(obj, key=repr):
            out.append(repr(key) + ":")
            _canon(obj[key], out)
            out.append(",")
        out.append("}")
    elif kind == "Subspace":
        # sparse rows: the canonical basis of a 1000-dim space is mostly zeros
        out.append(f"S{obj.ambient_dim}(")
        for row in obj.basis.entries:
            out.append(";".join(f"{k}:{x.numerator}/{x.denominator}"
                                for k, x in enumerate(row) if x))
            out.append("|")
        out.append(")")
    elif kind == "Matrix":
        out.append(f"M{obj.rows}x{obj.cols}")
        _canon(obj.entries, out)
    elif kind == "StructureTensor":
        out.append("T")
        _canon([obj.c, obj.labels], out)
    elif kind == "BilinearTensor":
        out.append("B")
        _canon(obj.b, out)
    elif dataclasses.is_dataclass(obj):
        out.append(kind + "(")
        for f in dataclasses.fields(obj):
            out.append(f.name + "=")
            _canon(getattr(obj, f.name), out)
            out.append(",")
        out.append(")")
    else:
        raise TypeError(f"no canonical form for {kind}")


def digest(obj) -> str:
    parts: list[str] = []
    _canon(obj, parts)
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# independent checks for seeded inputs


def _inconsistent(rows: list[tuple[dict[int, Fraction], Fraction]], ncols: int) -> bool:
    """Dense Gauss-Jordan on [A | b]; True iff some row reduces to 0 = c != 0."""
    mat = [[coeffs.get(c, Fraction(0)) for c in range(ncols)] + [rhs]
           for coeffs, rhs in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return any(row[ncols] for row in mat[r:])


def replay_certificate(t, b, sub, res) -> list[str]:
    """Rebuild the factor-map column the certificate names and re-eliminate it.

    The equations for (e_i, e_j) only involve one column of the unknown map
    (column i on the left, j on the right), so the equations of the failing
    column, up to and including the failing one, form a small system that a
    separate dense elimination must find consistent without the failing
    equation and inconsistent with it.
    """
    cert = res.certificate
    if cert is None:
        return ["infeasible factorization without a certificate"]
    n = t.dim
    fi, fj, _fk = cert.equation
    fail_col = fi if res.side == "left" else fj
    rows, tags = [], []
    for i in range(n):
        for j in range(n):
            col, against = (i, j) if res.side == "left" else (j, i)
            if col != fail_col:
                continue
            target = sub.reduce(b.value_basis(i, j))
            brackets = [sub.reduce(t.bracket_basis(r, against)) for r in range(n)]
            for k in range(n):
                if (i, j, k) > cert.equation:
                    continue
                rows.append(({r: brackets[r][k] for r in range(n) if brackets[r][k]},
                             target[k]))
                tags.append((i, j, k))
    problems = []
    if not cert.defect:
        problems.append("certificate defect is zero")
    if tags[-1:] != [cert.equation]:
        problems.append("failing equation not found in its column")
    elif _inconsistent(rows[:-1], n) or not _inconsistent(rows, n):
        problems.append("certificate replay does not end in a contradiction")
    if not set(cert.used_equations) <= set(tags):
        problems.append("certificate uses equations outside the failing column")
    return problems


def factor_problems(pkg, t, b, sub, res) -> list[str]:
    """Feasible: [phi, -] plus the residual reproduces B, residual lies in S."""
    if not res.feasible:
        return replay_certificate(t, b, sub, res)
    n = t.dim
    if res.side == "left":
        approx = pkg.bider_from_map(t, res.phi)
    else:
        approx = pkg.biderivations.map_bracket_tensor(t, res.phi, "right")
    problems = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if approx.b[k][i][j] + res.residual.b[k][i][j] != b.b[k][i][j]:
                    problems.append(f"{res.side} factor does not reproduce B at {(i, j, k)}")
                    return problems
    if not all(sub.contains(res.residual.value_basis(i, j))
               for i in range(n) for j in range(n)):
        problems.append(f"{res.side} residual leaves the subspace")
    return problems


def _sparse_bracket(br, u: dict, v: dict) -> dict:
    out: dict[int, Fraction] = {}
    for a, ua in u.items():
        for b, vb in v.items():
            for k, co in br.get((a, b), ()):
                out[k] = out.get(k, 0) + ua * vb * co
    return out


def _combine(terms) -> bool:
    """True iff the signed sum of sparse vectors ``terms`` is zero."""
    total: dict[int, Fraction] = {}
    for sign, vec in terms:
        for k, x in vec.items():
            total[k] = total.get(k, 0) + sign * x
    return not any(total.values())


def is_biderivation_sparse(t, vec) -> bool:
    """Both slice families of the tensor with vectorization ``vec`` are derivations.

    Evaluates B(e_i,[e_j,e_l]) = [B(e_i,e_j),e_l] + [e_j,B(e_i,e_l)] and
    B([e_i,e_j],e_l) = [B(e_i,e_l),e_j] + [e_i,B(e_j,e_l)] on basis triples
    with sparse vectors: the same definition as the library's
    ``is_biderivation``, in a form cheap enough to run on every basis
    tensor of a seeded algebra in every run.
    """
    n = t.dim
    br = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if t.c[k][i][j]:
                    br.setdefault((i, j), []).append((k, t.c[k][i][j]))
    bv: dict[tuple[int, int], dict[int, Fraction]] = {}
    for idx, x in enumerate(vec):
        if x:
            k, rest = divmod(idx, n * n)
            bv.setdefault(divmod(rest, n), {})[k] = x
    units = [{j: 1} for j in range(n)]
    empty: dict = {}

    def b_of(u: dict, v: dict) -> dict:
        out: dict[int, Fraction] = {}
        for a, ua in u.items():
            for b, vb in v.items():
                for k, x in bv.get((a, b), empty).items():
                    out[k] = out.get(k, 0) + ua * vb * x
        return out

    for i in range(n):
        for j in range(n):
            for l in range(n):
                ei, ej, el = units[i], units[j], units[l]
                jl = _sparse_bracket(br, ej, el)
                if not _combine([(1, b_of(ei, jl)),
                                 (-1, _sparse_bracket(br, bv.get((i, j), empty), el)),
                                 (-1, _sparse_bracket(br, ej, bv.get((i, l), empty)))]):
                    return False
                ij = _sparse_bracket(br, ei, ej)
                if not _combine([(1, b_of(ij, el)),
                                 (-1, _sparse_bracket(br, bv.get((i, l), empty), ej)),
                                 (-1, _sparse_bracket(br, ei, bv.get((j, l), empty)))]):
                    return False
    return True


def independent_problems(pkg, t, outputs: dict) -> dict[str, list[str]]:
    """Problems per query step for one seeded algebra; missing steps are skipped."""
    n = t.dim
    alg = pkg.algebra
    found: dict[str, list[str]] = {}

    def note(step, problem):
        found.setdefault(step, []).append(problem)

    units = [pkg.linalg.unit_vector(n, j) for j in range(n)]
    zl = outputs.get("left_center")
    if zl is not None:
        for x in zl.basis_vectors():
            if any(any(pkg.bracket(t, x, u)) for u in units):
                note("left_center", "basis vector does not bracket to zero on the left")
    z = outputs.get("center")
    if z is not None:
        for x in z.basis_vectors():
            if any(any(pkg.bracket(t, x, u)) or any(pkg.bracket(t, u, x)) for u in units):
                note("center", "basis vector is not central")
    der = outputs.get("derivation_space")
    if der is not None:
        for v in der.basis_vectors():
            if not pkg.is_derivation(t, alg.vec_to_map(v, n)):
                note("derivation_space", "basis map is not a derivation")
    inner = outputs.get("inner_derivation_space")
    if inner is not None and zl is not None and inner.dim != n - zl.dim:
        note("inner_derivation_space", f"dim Inner {inner.dim} != n - dim Zl {n - zl.dim}")
    bider = outputs.get("biderivation_space")
    if bider is not None:
        for v in bider.basis_vectors():
            if not is_biderivation_sparse(t, v):
                note("biderivation_space", "basis tensor is not a biderivation")
    b = pkg.BilinearTensor(t.c)
    kernel = outputs.get("leibniz_kernel")
    for step, sub in (("factor_left_zero", pkg.Subspace.zero(n)),
                      ("factor_right_zero", pkg.Subspace.zero(n)),
                      ("factor_left_kernel", kernel), ("factor_right_kernel", kernel)):
        res = outputs.get(step)
        if res is not None and sub is not None:
            for problem in factor_problems(pkg, t, b, sub, res):
                note(step, problem)
    return found


# ---------------------------------------------------------------------------
# the verify-paper battery


def parse_line(line: str) -> tuple[str, str]:
    """(name, verdict) of one rendered item line ``MARK  name  (detail)``."""
    verdict, rest = line[:4], line[6:]
    return rest.split("  (", 1)[0], verdict


def battery_outcome(lines: list[str], exit_code: int, pinned: dict,
                    sections: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) of one ``verify-paper`` pass.

    An operation is one item.  It fails when it reads FAIL, is missing, or
    its line differs from the pinned one; an unexpected extra item counts as
    attempted and failed.  The roll-up line and the exit code are outputs
    but not operations: a difference there is a mismatch only.
    """
    expected = [line for title in sections for line in pinned["sections"][title]]
    actual = {}
    for line in lines[:-1]:
        actual.setdefault(parse_line(line)[0], []).append(line)
    attempted = failed = 0
    mismatches = []
    for line in expected:
        name, verdict = parse_line(line)
        attempted += 1
        got = actual.get(name)
        if not got:
            failed += 1
            mismatches.append(f"missing item: {name}")
            continue
        seen = got.pop(0)
        if seen != line:
            failed += 1
            mismatches.append(f"changed item: {seen}")
        elif verdict == "FAIL":
            failed += 1
    for extra in (line for rest in actual.values() for line in rest):
        attempted += 1
        failed += 1
        mismatches.append(f"unexpected item: {extra}")
    rollup = pinned["rollup"].get(",".join(sections))
    if rollup is not None and (not lines or lines[-1] != rollup):
        mismatches.append(f"changed roll-up line: {lines[-1] if lines else None}")
    if exit_code != pinned["exit_code"].get(",".join(sections)):
        mismatches.append(f"changed exit code: {exit_code}")
    return attempted, failed, mismatches
