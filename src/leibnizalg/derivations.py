"""Derivations, inner derivations, and the two completeness notions.

A derivation of a left Leibniz algebra is a linear map D satisfying
D([x, y]) = [D(x), y] + [x, D(y)].  Left multiplications L_x(y) = [x, y]
are always derivations; their span is the inner-derivation space, and the
kernel of x -> L_x is exactly the left centre, so

    dim Inner(L) = dim L - dim Z^l(L).

Two non-equivalent notions of a *complete* Leibniz algebra circulate.
Both reduce to the classical Lie-algebra definition (trivial centre, all
derivations inner) when the bracket is antisymmetric:

* definition 1: the quotient by the Leibniz kernel has trivial centre,
  and every derivation agrees with some left multiplication modulo the
  Leibniz kernel;
* definition 2: the centre of the algebra itself is trivial, and every
  derivation is inner.

Both deciders return a :class:`CompletenessReport` carrying obstructions
and witnesses rather than a bare boolean, so failures can be explained.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .algebra import (
    StructureTensor,
    bracket,
    center,
    leibniz_kernel,
    map_index,
    map_to_vec,
    quotient,
    sparse_bracket,
    vec_to_map,
)
from .linalg import (
    LinearSystem,
    Matrix,
    Subspace,
    Vector,
    _acc,
    _nullspace_of,
    as_vector,
    sparse,
    unit_vector,
)

_ONE = Fraction(1)

# An equation system over the entries of a linear map D (or of one slice of
# a bilinear map) is a list eqs with eqs[k] the sparse row {unknown: coeff}
# of output component k; ``unknown(r, s)`` names the unknown holding entry r
# of D(e_s).


def add_image(eqs: list[dict[int, Fraction]], unknown, w) -> None:
    """Add D(w) for w given as (l, w_l) pairs."""
    for k, row in enumerate(eqs):
        for l, wl in w:
            _acc(row, unknown(k, l), wl)


def add_image_bracket(t: StructureTensor, eqs: list[dict[int, Fraction]], unknown,
                      s: int, j: int, sign: int, image_left: bool) -> None:
    """Add sign * [D e_s, e_j] (image_left) or sign * [e_j, D e_s]."""
    table = t.brackets
    for l in range(t.dim):
        for k, co in table.get((l, j) if image_left else (j, l), ()):
            _acc(eqs[k], unknown(l, s), sign * co)


def derivation_rows(t: StructureTensor, unknown):
    """Sparse rows of D[e_i,e_j] - [D e_i, e_j] - [e_i, D e_j] = 0.

    One equation per basis pair (i, j) and output component k, tagged
    (i, j, k), in lexicographic order.
    """
    n, table = t.dim, t.brackets
    for i in range(n):
        for j in range(n):
            eqs: list[dict[int, Fraction]] = [{} for _ in range(n)]
            add_image(eqs, unknown, table.get((i, j), ()))
            add_image_bracket(t, eqs, unknown, i, j, -1, image_left=True)
            add_image_bracket(t, eqs, unknown, j, i, -1, image_left=False)
            for k, coeffs in enumerate(eqs):
                if coeffs:
                    yield coeffs, (i, j, k)


def is_derivation(t: StructureTensor, m: Matrix) -> bool:
    """Whether D[e_i,e_j] = [D(e_i),e_j] + [e_i,D(e_j)] holds on all pairs."""
    n = t.dim
    if m.rows != n or m.cols != n:
        raise ValueError("map dimension differs from algebra dimension")
    table = t.brackets
    cols = [sparse(m.column(j)) for j in range(n)]
    units = [{j: _ONE} for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs: dict[int, Fraction] = {}
            for l, co in table.get((i, j), ()):
                for r, x in cols[l].items():
                    _acc(lhs, r, co * x)
            rhs = sparse_bracket(t, cols[i], units[j])
            for k, v in sparse_bracket(t, units[i], cols[j]).items():
                _acc(rhs, k, v)
            if lhs != rhs:
                return False
    return True


def derivation_space(t: StructureTensor) -> Subspace:
    """All derivations, as a canonical subspace of vectorized n x n maps."""
    t.require_validated()
    n = t.dim
    return _nullspace_of(derivation_rows(t, partial(map_index, n)), n * n)


def left_multiplication(t: StructureTensor, x) -> Matrix:
    """Matrix of y -> [x, y] in the algebra basis."""
    xv = as_vector(x)
    n = t.dim
    if len(xv) != n:
        raise ValueError("coordinate length differs from algebra dimension")
    return Matrix.from_columns(
        [bracket(t, xv, unit_vector(n, j)) for j in range(n)], rows=n)


def inner_derivation_space(t: StructureTensor) -> Subspace:
    """Span of the vectorized left multiplications by basis elements."""
    t.require_validated()
    n = t.dim
    return Subspace.from_vectors(
        [map_to_vec(left_multiplication(t, unit_vector(n, i))) for i in range(n)],
        n * n)


@dataclass(frozen=True)
class CompletenessReport:
    """Outcome of a completeness test, with explanations.

    ``center_obstruction`` is the nonzero (quotient) centre when condition
    (a) fails; ``derivation_obstruction`` is a derivation violating
    condition (b).  The verdict is true iff both are None.  For the
    quotient-based definition, ``witnesses`` holds one element x per basis
    derivation D with Im(D - L_x) inside the Leibniz kernel, or None where
    no such x exists.
    """

    definition: str  # "def1" | "def2"
    verdict: bool
    center_obstruction: Optional[Subspace] = None
    derivation_obstruction: Optional[Matrix] = None
    witnesses: Optional[tuple[Optional[Vector], ...]] = None


def is_complete_def2(t: StructureTensor) -> CompletenessReport:
    """Trivial centre and every derivation inner."""
    t.require_validated()
    z = center(t)
    center_ob = z if z.dim else None
    der = derivation_space(t)
    inner = inner_derivation_space(t)
    der_ob = None
    if der != inner:
        offender = next(v for v in der.basis_vectors() if not inner.contains(v))
        der_ob = vec_to_map(offender, t.dim)
    return CompletenessReport(
        definition="def2",
        verdict=center_ob is None and der_ob is None,
        center_obstruction=center_ob,
        derivation_obstruction=der_ob,
    )


def is_complete_def1(t: StructureTensor) -> CompletenessReport:
    """Trivial centre of L/Leib(L), derivations inner modulo Leib(L).

    Condition (b) for a derivation D asks for x with Im(D - L_x) inside
    the Leibniz kernel; composing with the quotient projection turns the
    existential into the exact linear system pi.D = sum_i x_i pi.L_{e_i},
    solved per basis derivation.  The recorded witness is the particular
    solution with all free coordinates zero.
    """
    t.require_validated()
    n = t.dim
    q = quotient(t, leibniz_kernel(t))
    zq = center(q.tensor)
    center_ob = zq if zq.dim else None

    pi = q.projection
    m = pi.rows
    pl = [pi @ left_multiplication(t, unit_vector(n, i)) for i in range(n)]
    witnesses: list[Optional[Vector]] = []
    der_ob: Optional[Matrix] = None
    for bv in derivation_space(t).basis_vectors():
        d = vec_to_map(bv, n)
        target = pi @ d
        sys = LinearSystem(n)
        for r in range(m):
            for col in range(n):
                coeffs = {i: pl[i].entry(r, col)
                          for i in range(n) if pl[i].entry(r, col)}
                sys.add_equation(coeffs, rhs=target.entry(r, col), tag=(r, col))
        if sys.consistent:
            witnesses.append(sys.particular_solution())
        else:
            witnesses.append(None)
            if der_ob is None:
                der_ob = d
    return CompletenessReport(
        definition="def1",
        verdict=center_ob is None and der_ob is None,
        center_obstruction=center_ob,
        derivation_obstruction=der_ob,
        witnesses=tuple(witnesses),
    )
