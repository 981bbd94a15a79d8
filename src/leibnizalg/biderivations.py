"""Biderivation spaces, bracket factorizations, and commuting maps.

A bilinear map B on a left Leibniz algebra is a *biderivation* when every
left slice B(x, -) and every right slice B(-, y) is a derivation.  So the
left space is Q^n (x) Der and the right space is Der (x) Q^n: both are
built by placing the canonical basis of the derivation space into every
slice, with no solve.  The biderivations proper are their intersection,
placed from one derivation space.  The left and right slice systems
stacked over all n^3 unknowns give the same space by an independent
elimination; ``verify-paper`` and the tests compare the two.  The variant
used by some authors, in which the first-argument rule carries a minus
sign, constrains one right slice at a time; its slice space is solved once
over n^2 unknowns and placed the same way (the two variants agree whenever
the bracket is antisymmetric).

The factorization routines answer the question "is B(x, y) = [phi(x), y]
up to a residual valued in a prescribed subspace S?" as an exact linear
solve in the entries of phi.  On success they return phi together with
the residual tensor; on failure, a certificate replaying how the pinned
entries of phi force an impossible equation.

Commuting maps ([g(x), x] = [x, g(x)] = 0) and skew-commuting maps
([g(x), y] = [g(y), x]) are computed from the polarized identities, which
are equivalent over the rationals.  `(x, y) -> [g(x), y]` sends commuting
maps to skew-symmetric biderivations and skew-commuting maps to symmetric
ones; on algebras with trivial centre and only inner derivations the
converse construction (factor, then project away the left centre) is
implemented and verified by :func:`converse_def2_sym_skew`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Optional

from .algebra import (
    BilinearTensor,
    StructureTensor,
    bilinear_to_row,
    bracket,
    left_center,
    leibniz_kernel,
    map_index,
    map_to_vec,
    row_to_bilinear,
    sparse_bracket,
    tensor_index,
    vec_to_map,
)
from .derivations import (
    add_image,
    add_image_bracket,
    derivation_rows,
    derivation_space,
    is_complete_def1,
    is_complete_def2,
    is_derivation,
)
from .linalg import (
    LinearSystem,
    Matrix,
    Subspace,
    _acc,
    _nullspace_of,
    sparse,
    subspace_intersection,
    unit_vector,
)

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# slice predicates


def _left_slice(b: BilinearTensor, i: int) -> Matrix:
    """Matrix of B(e_i, -)."""
    return Matrix.from_columns([b.value_basis(i, s) for s in range(b.dim)], rows=b.dim)


def _right_slice(b: BilinearTensor, j: int) -> Matrix:
    """Matrix of B(-, e_j)."""
    return Matrix.from_columns([b.value_basis(s, j) for s in range(b.dim)], rows=b.dim)


def is_left_biderivation(t: StructureTensor, b: BilinearTensor) -> bool:
    """Every left slice B(e_i, -) is a derivation."""
    if b.dim != t.dim:
        raise ValueError("tensor dimension differs from algebra dimension")
    return all(is_derivation(t, _left_slice(b, i)) for i in range(t.dim))


def is_right_biderivation(t: StructureTensor, b: BilinearTensor) -> bool:
    """Every right slice B(-, e_j) is a derivation."""
    if b.dim != t.dim:
        raise ValueError("tensor dimension differs from algebra dimension")
    return all(is_derivation(t, _right_slice(b, j)) for j in range(t.dim))


def is_biderivation(t: StructureTensor, b: BilinearTensor) -> bool:
    """Both slice families are derivations."""
    return is_left_biderivation(t, b) and is_right_biderivation(t, b)


# ---------------------------------------------------------------------------
# the four spaces, as subspaces of bilinear maps B^k_ij (index (k*n+i)*n+j)


def _slice_space(maps: Subspace, n: int, side: str) -> Subspace:
    """Bilinear maps each of whose left (or right) slices lies in ``maps``.

    ``maps`` is a subspace of vectorized n x n maps (entry (r, s) at index
    r*n+s). Each canonical row is copied into every slice a: entry (r, s)
    goes to B^r_{a s} for the left slice B(e_a, -) and to B^r_{s a} for the
    right slice B(-, e_a). Both placements keep the order of keys within a
    row, and rows placed into different slices have disjoint supports, so
    the placed rows sorted by pivot are already the canonical basis.
    """
    if side == "left":
        def place(a, k):
            r, s = divmod(k, n)
            return (r * n + a) * n + s
    else:
        def place(a, k):
            return k * n + a
    rows = [{place(a, k): x for k, x in row.items()}
            for a in range(n) for row in maps.rows]
    rows.sort(key=min)
    return Subspace(rows, n ** 3)


def _left_rows(t: StructureTensor):
    """B(e_a, [e_j, e_l]) = [B(e_a,e_j), e_l] + [e_j, B(e_a,e_l)]: each B(e_a, -)
    is a derivation."""
    n = t.dim
    for a in range(n):
        for coeffs, (j, l, k) in derivation_rows(
                t, lambda r, s: tensor_index(n, r, a, s)):
            yield coeffs, ("left", a, j, l, k)


def _right_rows(t: StructureTensor):
    """B([e_i, e_j], e_l) = [B(e_i,e_l), e_j] + [e_i, B(e_j,e_l)]: each B(-, e_l)
    is a derivation."""
    n = t.dim
    for l in range(n):
        for coeffs, (i, j, k) in derivation_rows(
                t, lambda r, s: tensor_index(n, r, s, l)):
            yield coeffs, ("right", i, j, l, k)


def _first_slot_minus_rows(t: StructureTensor, unknown):
    """M[e_i, e_j] = [e_i, M e_j] - [e_j, M e_i] for one right slice
    M = B(-, e_l), i.e. B([e_i,e_j], e_l) = [e_i, B(e_j,e_l)] - [e_j, B(e_i,e_l)].

    ``unknown(r, s)`` names entry r of M e_s, as in derivation_rows; one
    equation per (i, j, k), tagged (i, j, k).
    """
    n, table = t.dim, t.brackets
    for i in range(n):
        for j in range(n):
            eqs: list[dict[int, Fraction]] = [{} for _ in range(n)]
            add_image(eqs, unknown, table.get((i, j), ()))
            add_image_bracket(t, eqs, unknown, j, i, -1, image_left=False)
            add_image_bracket(t, eqs, unknown, i, j, 1, image_left=False)
            for k, coeffs in enumerate(eqs):
                if coeffs:
                    yield coeffs, (i, j, k)


def left_biderivation_space(t: StructureTensor) -> Subspace:
    """Bilinear maps whose left slices are all derivations: Q^n (x) Der,
    placed slice by slice from the derivation basis."""
    return _slice_space(derivation_space(t), t.dim, "left")


def right_biderivation_space(t: StructureTensor) -> Subspace:
    """Bilinear maps whose right slices are all derivations: Der (x) Q^n,
    placed slice by slice from the derivation basis."""
    return _slice_space(derivation_space(t), t.dim, "right")


def stacked_biderivation_space(t: StructureTensor) -> Subspace:
    """Biderivations as the nullspace of the left and right slice systems
    stacked over all n^3 unknowns B^k_ij.

    The independent reference for :func:`biderivation_space`: it shares no
    elimination with the route through the derivation space, so agreement
    of the two is a cross-check. The property battery of ``verify-paper``
    and the tests run it; the library's own queries never do.
    """
    t.require_validated()
    return _nullspace_of(chain(_left_rows(t), _right_rows(t)), t.dim ** 3)


def biderivation_space(t: StructureTensor) -> Subspace:
    """Intersection of the left and right spaces, both placed from one Der.

    The intersection solves over at most n * dim Der unknowns.
    """
    t.require_validated()
    der = derivation_space(t)
    return subspace_intersection(_slice_space(der, t.dim, "left"),
                                 _slice_space(der, t.dim, "right"))


def loday_biderivation_space(t: StructureTensor) -> Subspace:
    """The variant with a minus sign in the first-argument rule.

    Left slices are derivations, as for :func:`left_biderivation_space`;
    the sign-flipped first-argument rule involves one right slice at a
    time, so its space of slices is solved once over n^2 unknowns and
    placed into every right slice. Coincides with
    :func:`biderivation_space` whenever the bracket is antisymmetric.
    """
    t.require_validated()
    n = t.dim
    slices = _nullspace_of(_first_slot_minus_rows(t, partial(map_index, n)), n * n)
    return subspace_intersection(left_biderivation_space(t),
                                 _slice_space(slices, n, "right"))


# ---------------------------------------------------------------------------
# symmetric / skew parts (no 1/2 factor; B = (B+ + B-)/2 exactly), on the
# value table: the transpose moves the entry at (i, j) to (j, i).


def _combine(b: BilinearTensor, entries, sign: int) -> BilinearTensor:
    """B + sign * (the tensor with the table entries ``entries``)."""
    out = {key: dict(terms) for key, terms in b.values.items()}
    for key, terms in entries:
        row = out.setdefault(key, {})
        for k, x in terms:
            _acc(row, k, sign * x)
    return BilinearTensor.from_values(b.dim, out)


def _transposed(b: BilinearTensor):
    return (((j, i), terms) for (i, j), terms in b.values.items())


def symmetric_part(b: BilinearTensor) -> BilinearTensor:
    """(x, y) -> B(x, y) + B(y, x)."""
    return _combine(b, _transposed(b), 1)


def skew_part(b: BilinearTensor) -> BilinearTensor:
    """(x, y) -> B(x, y) - B(y, x)."""
    return _combine(b, _transposed(b), -1)


def symmetric_skew_spans(space: Subspace, n: int) -> tuple[Subspace, Subspace]:
    """The spans of the symmetric parts and of the skew parts of a subspace of
    vectorized bilinear maps on Q^n, taken row by row on the sparse rows."""
    tensors = [row_to_bilinear(row, n) for row in space.rows]
    return tuple(Subspace._from_sparse([bilinear_to_row(part(b)) for b in tensors], n ** 3)
                 for part in (symmetric_part, skew_part))


def is_symmetric(b: BilinearTensor) -> bool:
    return skew_part(b).is_zero()


def is_skew_symmetric(b: BilinearTensor) -> bool:
    return symmetric_part(b).is_zero()


# ---------------------------------------------------------------------------
# factorizations B(x,y) = [phi(x), y] + residual, residual valued in S


@dataclass(frozen=True)
class CertificateStep:
    """One unknown entry of the factor map pinned on the way to the clash."""

    equation: tuple  # (i, j, k): basis pair and component of the pinning row
    unknown: tuple[int, int]  # (row, column) entry of the factor map
    value: Optional[Fraction]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Replay of an inconsistent factorization.

    ``equation`` is the (i, j, k) index of the first equation that reduced
    to 0 = defect; ``steps`` lists the previously pinned entries of the
    factor map in the same column as the failing basis vector, in
    elimination order; ``used_equations`` tags the pivot rows consumed
    while reducing the failing equation.
    """

    equation: tuple
    defect: Fraction
    steps: tuple[CertificateStep, ...]
    used_equations: tuple


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of a one-sided factorization attempt.

    ``phi`` is the factor map (for the right-sided variant it multiplies
    the second argument).  ``residual`` is B minus the bracket part and is
    checked to take values in ``residual_subspace``; the ``checks`` dict
    records that verification, plus — when factoring modulo the Leibniz
    kernel — whether the residual is itself a one-sided biderivation on
    the matching side.
    """

    side: str  # "left" | "right"
    feasible: bool
    phi: Optional[Matrix]
    residual: Optional[BilinearTensor]
    residual_subspace: Subspace
    certificate: Optional[InfeasibilityCertificate] = None
    checks: dict[str, bool] = field(default_factory=dict)


def map_bracket_tensor(t: StructureTensor, m: Matrix, side: str = "left") -> BilinearTensor:
    """The tensor of (x, y) -> [m(x), y] (left) or (x, y) -> [m(y), x] (right)."""
    n = t.dim
    if m.rows != n or m.cols != n:
        raise ValueError("map dimension differs from algebra dimension")
    vals: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(n):
        ma = sparse(m.column(a))
        for b in range(n):
            key = (a, b) if side == "left" else (b, a)
            vals[key] = sparse_bracket(t, ma, {b: _ONE})
    return BilinearTensor.from_values(n, vals)


def bider_from_map(t: StructureTensor, g: Matrix) -> BilinearTensor:
    """The tensor of (x, y) -> [g(x), y]."""
    return map_bracket_tensor(t, g, side="left")


def _certificate(sys: LinearSystem, n: int, fail_col: int) -> InfeasibilityCertificate:
    con = sys.contradiction
    steps = []
    for s in sys.pivot_steps():
        r, c = divmod(s.unknown, n)
        if c == fail_col and s.tag is not None:
            steps.append(CertificateStep(equation=s.tag, unknown=(r, c),
                                         value=s.value))
    return InfeasibilityCertificate(equation=con.tag, defect=con.defect,
                                    steps=tuple(steps),
                                    used_equations=con.used_tags)


def _factor(t: StructureTensor, b: BilinearTensor, sub: Subspace, side: str) -> FactorizationResult:
    t.require_validated()
    n = t.dim
    if b.dim != n:
        raise ValueError("tensor dimension differs from algebra dimension")
    if sub.ambient_dim != n:
        raise ValueError("residual subspace lives in the wrong ambient space")

    # Membership "w in S" becomes "residual of w after reduction by S = 0",
    # so project both the targets and the bracket columns once.
    reduced_cols = [[sub.reduce(t.bracket_basis(r, j)) for r in range(n)]
                    for j in range(n)]

    sys = LinearSystem(n * n)
    for i in range(n):
        for j in range(n):
            target = sub.reduce(b.value_basis(i, j))
            # unknown column: phi[.,i] on the left, phi[.,j] on the right
            col, against = (i, j) if side == "left" else (j, i)
            cols = reduced_cols[against]
            for k in range(n):
                coeffs = {map_index(n, r, col): cols[r][k]
                          for r in range(n) if cols[r][k]}
                if not coeffs and not target[k]:
                    continue
                sys.add_equation(coeffs, rhs=target[k], tag=(i, j, k))
                if not sys.consistent:
                    fail_col = i if side == "left" else j
                    return FactorizationResult(
                        side=side, feasible=False, phi=None, residual=None,
                        residual_subspace=sub,
                        certificate=_certificate(sys, n, fail_col))
    phi = vec_to_map(sys.particular_solution(), n)
    approx = map_bracket_tensor(t, phi, side=side)
    residual = _combine(b, approx.values.items(), -1)
    checks = {
        "residual_in_subspace": all(
            sub.contains(residual.value_basis(i, j)) for i, j in residual.values),
    }
    if sub == leibniz_kernel(t):
        if side == "left":
            checks["residual_is_left_biderivation"] = is_left_biderivation(t, residual)
        else:
            checks["residual_is_right_biderivation"] = is_right_biderivation(t, residual)
    return FactorizationResult(side=side, feasible=True, phi=phi,
                               residual=residual, residual_subspace=sub,
                               checks=checks)


def factor_left_modulo(t: StructureTensor, b: BilinearTensor, sub: Subspace) -> FactorizationResult:
    """Solve B(e_i, e_j) - [phi(e_i), e_j] in S for a linear map phi.

    Equations are processed in lexicographic (i, j, component) order, so
    an infeasibility certificate reads as a forward elimination story:
    the earlier pairs pin entries of phi, the failing equation then
    reduces to 0 = defect.
    """
    return _factor(t, b, sub, "left")


def factor_right_modulo(t: StructureTensor, b: BilinearTensor, sub: Subspace) -> FactorizationResult:
    """Solve B(e_i, e_j) - [psi(e_j), e_i] in S for a linear map psi."""
    return _factor(t, b, sub, "right")


# ---------------------------------------------------------------------------
# commuting and skew-commuting maps


def _commuting_rows(t: StructureTensor):
    """[g(e_i),e_j] + [g(e_j),e_i] = 0 and [e_j,g(e_i)] + [e_i,g(e_j)] = 0 for
    i <= j, tagged ("out", i, j, k) and ("in", i, j, k)."""
    n = t.dim
    unknown = partial(map_index, n)
    for i in range(n):
        for j in range(i, n):
            out: list[dict[int, Fraction]] = [{} for _ in range(n)]
            add_image_bracket(t, out, unknown, i, j, 1, image_left=True)
            add_image_bracket(t, out, unknown, j, i, 1, image_left=True)
            inn: list[dict[int, Fraction]] = [{} for _ in range(n)]
            add_image_bracket(t, inn, unknown, j, i, 1, image_left=False)
            add_image_bracket(t, inn, unknown, i, j, 1, image_left=False)
            for k in range(n):
                if out[k]:
                    yield out[k], ("out", i, j, k)
                if inn[k]:
                    yield inn[k], ("in", i, j, k)


def commuting_map_space(t: StructureTensor) -> Subspace:
    """Maps g with [g(x), x] = [x, g(x)] = 0, via the polarized system.

    Over the rationals the quadratic conditions are equivalent to their
    polarizations [g(x),y] + [g(y),x] = 0 and [x,g(y)] + [y,g(x)] = 0.
    """
    t.require_validated()
    return _nullspace_of(_commuting_rows(t), t.dim ** 2)


def _skew_commuting_rows(t: StructureTensor):
    """[g(e_i),e_j] - [g(e_j),e_i] = 0 for i < j, tagged (i, j, k)."""
    n = t.dim
    unknown = partial(map_index, n)
    for i in range(n):
        for j in range(i + 1, n):
            eqs: list[dict[int, Fraction]] = [{} for _ in range(n)]
            add_image_bracket(t, eqs, unknown, i, j, 1, image_left=True)
            add_image_bracket(t, eqs, unknown, j, i, -1, image_left=True)
            for k, coeffs in enumerate(eqs):
                if coeffs:
                    yield coeffs, (i, j, k)


def skew_commuting_map_space(t: StructureTensor) -> Subspace:
    """Maps g with [g(x), y] = [g(y), x]."""
    t.require_validated()
    return _nullspace_of(_skew_commuting_rows(t), t.dim ** 2)


@dataclass(frozen=True)
class MapSpaceReport:
    """Check that commuting maps induce skew-symmetric biderivations and
    skew-commuting maps induce symmetric ones, generator by generator."""

    commuting_dim: int
    skew_commuting_dim: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_prop_commuting(t: StructureTensor) -> MapSpaceReport:
    """Run both map spaces through (x,y) -> [g(x),y] and classify images."""
    t.require_validated()
    n = t.dim
    comm = commuting_map_space(t)
    skew_comm = skew_commuting_map_space(t)
    violations: list[str] = []
    for idx, v in enumerate(comm.basis_vectors()):
        f = bider_from_map(t, vec_to_map(v, n))
        if not is_biderivation(t, f):
            violations.append(f"commuting generator {idx}: image is not a biderivation")
        if not symmetric_part(f).is_zero():
            violations.append(f"commuting generator {idx}: image is not skew-symmetric")
    for idx, v in enumerate(skew_comm.basis_vectors()):
        f = bider_from_map(t, vec_to_map(v, n))
        if not is_biderivation(t, f):
            violations.append(f"skew-commuting generator {idx}: image is not a biderivation")
        if not skew_part(f).is_zero():
            violations.append(f"skew-commuting generator {idx}: image is not symmetric")
    return MapSpaceReport(commuting_dim=comm.dim,
                          skew_commuting_dim=skew_comm.dim,
                          violations=tuple(violations))


# ---------------------------------------------------------------------------
# difference/sum of the two factor maps, and the converse construction


@dataclass(frozen=True)
class SigmaThetaEntry:
    definition: str  # "def1" | "def2"
    part: str  # "symmetric" | "skew"
    feasible: bool
    difference: Optional[Matrix]  # phi - psi for the symmetric part, phi + psi for the skew part
    holds: bool


@dataclass(frozen=True)
class SigmaThetaReport:
    entries: tuple[SigmaThetaEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.feasible and e.holds for e in self.entries)


def verify_sigma_theta(t: StructureTensor, b: BilinearTensor) -> SigmaThetaReport:
    """Factor both sides and test where phi -+ psi lands.

    For a symmetric biderivation the difference phi - psi of the left and
    right factor maps must satisfy [(phi-psi)(x), y] in Leib(L) (quotient
    completeness) or take values in Z^l(L) outright (inner-derivation
    completeness); for a skew-symmetric one the same holds for phi + psi.
    Mixed tensors are decomposed into their parts first.  Rejects tensors
    that are not biderivations and algebras that are complete in neither
    sense.
    """
    t.require_validated()
    if not is_biderivation(t, b):
        raise ValueError("tensor is not a biderivation")
    n = t.dim
    leib = leibniz_kernel(t)
    zl = left_center(t)
    applicable: list[tuple[str, Subspace]] = []
    if is_complete_def1(t).verdict:
        applicable.append(("def1", leib))
    if is_complete_def2(t).verdict:
        applicable.append(("def2", Subspace.zero(n)))
    if not applicable:
        raise ValueError("algebra is complete in neither sense")

    parts = [("symmetric", symmetric_part(b)), ("skew", skew_part(b))]
    entries: list[SigmaThetaEntry] = []
    for definition, modulus in applicable:
        for part_name, part in parts:
            if part.is_zero():
                continue
            left = factor_left_modulo(t, part, modulus)
            right = factor_right_modulo(t, part, modulus)
            if not (left.feasible and right.feasible):
                entries.append(SigmaThetaEntry(definition, part_name, False, None, False))
                continue
            combo = (left.phi - right.phi if part_name == "symmetric"
                     else left.phi + right.phi)
            if definition == "def1":
                holds = all(
                    leib.contains(bracket(t, combo.column(i), unit_vector(n, j)))
                    for i in range(n) for j in range(n))
            else:
                holds = all(zl.contains(combo.column(i)) for i in range(n))
            entries.append(SigmaThetaEntry(definition, part_name, True, combo, holds))
    return SigmaThetaReport(entries=tuple(entries))


@dataclass(frozen=True)
class ConverseEntry:
    part: str  # "symmetric" | "skew"
    tensor: BilinearTensor
    mapping: Optional[Matrix]
    feasible: bool
    reproduces: bool
    in_map_space: bool


@dataclass(frozen=True)
class ConverseReport:
    """Per basis biderivation: the induced map and its verified properties.

    Symmetric generators must come from skew-commuting maps, skew
    generators from commuting maps; ``reproduces`` confirms the exact
    identity B(x, y) = [g(x), y] on the basis.
    """

    entries: tuple[ConverseEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.feasible and e.reproduces and e.in_map_space
                   for e in self.entries)


def converse_def2_sym_skew(t: StructureTensor) -> ConverseReport:
    """Realize basis biderivations as [g(x), y] with g (skew-)commuting.

    Requires trivial centre and all derivations inner; then every left
    slice of a biderivation is an inner derivation, the factorization
    with zero residual is feasible, and composing the factor map with the
    projection along the left centre (onto the non-pivot coordinates of
    its canonical basis) yields the map g.  Membership of g in the
    commuting / skew-commuting space is verified, not assumed.
    """
    if not is_complete_def2(t).verdict:
        raise ValueError(
            "algebra is not complete in the inner-derivation sense")
    n = t.dim
    space = biderivation_space(t)
    zl = left_center(t)
    proj = Matrix.from_columns([zl.reduce(unit_vector(n, j)) for j in range(n)],
                               rows=n)
    zero = Subspace.zero(n)
    comm = commuting_map_space(t)
    skew_comm = skew_commuting_map_space(t)

    sym_space, skew_space = symmetric_skew_spans(space, n)

    entries: list[ConverseEntry] = []
    for part, part_space, target in (("symmetric", sym_space, skew_comm),
                                     ("skew", skew_space, comm)):
        for row in part_space.rows:
            tensor = row_to_bilinear(row, n)
            res = factor_left_modulo(t, tensor, zero)
            if not res.feasible:
                entries.append(ConverseEntry(part, tensor, None, False, False, False))
                continue
            g = proj @ res.phi
            entries.append(ConverseEntry(
                part=part, tensor=tensor, mapping=g, feasible=True,
                reproduces=bider_from_map(t, g) == tensor,
                in_map_space=target.contains(map_to_vec(g))))
    return ConverseReport(entries=tuple(entries))
