"""Structure constants for left Leibniz algebras and the basic invariants.

A left Leibniz algebra is a vector space with a bilinear bracket satisfying

    [x, [y, z]] = [y, [x, z]] + [[x, y], z]

(left multiplications act as derivations). Everything in this module is
phrased through a StructureTensor with

    [e_i, e_j] = sum_k c^k_ij e_k

relative to a fixed basis e_0 .. e_{n-1}. Indices are 0-based everywhere in
the library; the file format used by the CLI is 1-based and converts on the
boundary.

Conventions shared across the package:

* a tensor is one canonical sparse table (i, j) -> ((k, x^k_ij), ...) of its
  nonzero entries (keys sorted, terms in increasing k, no zeros), built by
  _table: StructureTensor.brackets and BilinearTensor.values. Every bracket
  evaluation and derivation-style equation system reads the bracket table,
  through sparse_bracket on sparse coordinate dicts {index: coefficient};
* StructureTensor.c[k][i][j] and BilinearTensor.b[k][i][j] are read-only
  dense views of the tables, built on first read; the package never reads them;
* a linear map is a square Matrix whose column j holds the coordinates of
  the image of e_j (so applying the map is Matrix.apply);
* linear maps vectorize row-major, entry (r, c) at index r*n + c;
* bilinear tensors vectorize with index (k*n + i)*n + j for x^k_ij.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .linalg import (
    Matrix,
    Scalar,
    Subspace,
    Vector,
    _acc,
    _nullspace_of,
    as_vector,
    dense,
    frac,
    sparse,
    unit_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LeibnizIdentityError(ValueError):
    """Raised when an operation requires a valid left Leibniz tensor."""


@dataclass(frozen=True)
class LeibnizViolation:
    """One failing instance of the left Leibniz identity.

    defect = [e_i, [e_j, e_k]] - [e_j, [e_i, e_k]] - [[e_i, e_j], e_k]
    """
    i: int
    j: int
    k: int
    defect: Vector


Table = dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]


def _table(dim: int, entries: Mapping[tuple[int, int], Mapping[int, Scalar]]) -> Table:
    """The canonical table of {(i, j): {k: coeff}} or {(i, j): ((k, coeff), ...)}:
    sorted keys, terms in increasing k, no zeros; every index in 0..dim-1."""
    table = {}
    for (i, j), terms in sorted(entries.items()):
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"index pair ({i},{j}) out of range 0..{dim - 1}")
        row = []
        for k, x in sorted(dict(terms).items()):
            if not 0 <= k < dim:
                raise ValueError(f"target index {k} out of range 0..{dim - 1}")
            x = frac(x)
            if x:
                row.append((k, x))
        if row:
            table[i, j] = tuple(row)
    return table


def _dense_view(dim: int, table: Table) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The dim x dim x dim tuple t[k][i][j] of a table, zeros as Fraction(0)."""
    planes = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in table.items():
        for k, x in terms:
            planes[k][i][j] = x
    return tuple(tuple(map(tuple, plane)) for plane in planes)


class StructureTensor:
    """Structure constants of a bilinear bracket on Q^dim, stored as the
    table ``brackets``: (i, j) -> ((k, c^k_ij), ...) for [e_i, e_j]."""

    def __init__(self, dim: int,
                 brackets: Mapping[tuple[int, int], Mapping[int, Scalar]],
                 labels: Optional[Sequence[str]] = None):
        self.dim = dim
        self.brackets = _table(dim, brackets)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != dim:
            raise ValueError("label count differs from dimension")

    @cached_property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense view c[k][i][j] of the bracket table."""
        return _dense_view(self.dim, self.brackets)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a coordinate vector."""
        return dense(dict(self.brackets.get((i, j), ())), self.dim)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else f"e{i + 1}"

    @cached_property
    def leibniz_violations(self) -> tuple[LeibnizViolation, ...]:
        return tuple(check_left_leibniz(self))

    @property
    def is_left_leibniz(self) -> bool:
        return not self.leibniz_violations

    def require_validated(self) -> None:
        if self.leibniz_violations:
            v = self.leibniz_violations[0]
            raise LeibnizIdentityError(
                f"not a left Leibniz algebra: identity fails at "
                f"({self.label(v.i)},{self.label(v.j)},{self.label(v.k)}) "
                f"with defect [{', '.join(str(x) for x in v.defect)}]")

    def __eq__(self, other) -> bool:
        return (isinstance(other, StructureTensor)
                and self.dim == other.dim
                and self.brackets == other.brackets
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.dim, tuple(self.brackets.items()), self.labels))

    def __repr__(self):
        nnz = sum(len(terms) for terms in self.brackets.values())
        return f"StructureTensor(dim={self.dim}, nonzeros={nnz})"


class BilinearTensor:
    """A bilinear map f: L x L -> L, f(e_i,e_j) = sum_k b^k_ij e_k, stored as
    the table ``values``: (i, j) -> ((k, b^k_ij), ...), like brackets."""

    def __init__(self, b: Sequence[Sequence[Sequence[Scalar]]]):
        """From dense coordinates b[k][i][j]; from_values takes the table."""
        dim = len(b)
        if any(len(plane) != dim or any(len(row) != dim for row in plane)
               for plane in b):
            raise ValueError("bilinear tensor must be dim x dim x dim")
        self.dim = dim
        self.values = _table(dim, {(i, j): {k: b[k][i][j] for k in range(dim)}
                                   for i in range(dim) for j in range(dim)})

    @classmethod
    def zero(cls, dim: int) -> BilinearTensor:
        return cls.from_values(dim, {})

    @classmethod
    def from_values(cls, dim: int,
                    values: Mapping[tuple[int, int], Mapping[int, Scalar]]) -> BilinearTensor:
        """From a table {(i, j): {k: coeff}} of values f(e_i, e_j)."""
        out = cls.__new__(cls)
        out.dim = dim
        out.values = _table(dim, values)
        return out

    @cached_property
    def b(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense view b[k][i][j] of the value table."""
        return _dense_view(self.dim, self.values)

    def value_basis(self, i: int, j: int) -> Vector:
        return dense(dict(self.values.get((i, j), ())), self.dim)

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        return (isinstance(other, BilinearTensor)
                and self.dim == other.dim and self.values == other.values)

    def __hash__(self):
        return hash((self.dim, tuple(self.values.items())))

    def __repr__(self):
        return f"BilinearTensor(dim={self.dim})"


# ---------------------------------------------------------------------------
# vectorization conventions


def map_to_vec(m: Matrix) -> Vector:
    """Row-major vectorization of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("linear maps are square")
    return tuple(x for row in m.entries for x in row)


def vec_to_map(v: Sequence[Scalar], n: int) -> Matrix:
    vv = as_vector(v)
    if len(vv) != n * n:
        raise ValueError("vector length is not n^2")
    return Matrix([vv[r * n:(r + 1) * n] for r in range(n)], cols=n)


def bilinear_to_row(t: BilinearTensor) -> dict[int, Fraction]:
    """The sparse vectorization {(k*n + i)*n + j: b^k_ij} of the nonzero values."""
    n = t.dim
    return {tensor_index(n, k, i, j): x
            for (i, j), terms in t.values.items() for k, x in terms}


def row_to_bilinear(row: Mapping[int, Scalar], n: int) -> BilinearTensor:
    """The tensor of a sparse vectorization, such as a Subspace row."""
    values: dict[tuple[int, int], dict[int, Scalar]] = {}
    for index, x in row.items():
        k, ij = divmod(index, n * n)
        values.setdefault(divmod(ij, n), {})[k] = x
    return BilinearTensor.from_values(n, values)


def bilinear_to_vec(t: BilinearTensor) -> Vector:
    return dense(bilinear_to_row(t), t.dim ** 3)


def vec_to_bilinear(v: Sequence[Scalar], n: int) -> BilinearTensor:
    if len(v) != n ** 3:
        raise ValueError("vector length is not n^3")
    return row_to_bilinear({index: x for index, x in enumerate(v) if x}, n)


def tensor_index(n: int, k: int, i: int, j: int) -> int:
    return (k * n + i) * n + j


def map_index(n: int, r: int, c: int) -> int:
    return r * n + c


# ---------------------------------------------------------------------------
# core operations


def sparse_bracket(t: StructureTensor, x: Mapping[int, Fraction],
                   y: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """[x, y] for sparse coordinate dicts, read from the bracket table."""
    table = t.brackets
    out: dict[int, Fraction] = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, co in table.get((i, j), ()):
                _acc(out, k, xi * yj * co)
    return out


def check_left_leibniz(t: StructureTensor) -> list[LeibnizViolation]:
    """All triples where [x,[y,z]] = [y,[x,z]] + [[x,y],z] fails on the basis."""
    n = t.dim
    units = [{i: _ONE} for i in range(n)]

    def pair(i: int, j: int) -> dict[int, Fraction]:
        return dict(t.brackets.get((i, j), ()))

    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                defect = sparse_bracket(t, units[i], pair(j, k))
                for tt, v in sparse_bracket(t, units[j], pair(i, k)).items():
                    _acc(defect, tt, -v)
                for tt, v in sparse_bracket(t, pair(i, j), units[k]).items():
                    _acc(defect, tt, -v)
                if defect:
                    violations.append(LeibnizViolation(i, j, k, dense(defect, n)))
    return violations


def bracket(t: StructureTensor, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    """[x, y] for coordinate vectors x, y."""
    xv, yv = as_vector(x), as_vector(y)
    n = t.dim
    if len(xv) != n or len(yv) != n:
        raise ValueError("coordinate length differs from algebra dimension")
    return dense(sparse_bracket(t, sparse(xv), sparse(yv)), n)


def opposite(t: StructureTensor) -> StructureTensor:
    """The opposite product {x,y} = [y,x].

    Sends right Leibniz tensors to left ones and vice versa; applying it
    twice returns the original tensor.
    """
    return StructureTensor(
        t.dim, {(j, i): terms for (i, j), terms in t.brackets.items()},
        labels=t.labels)


def is_lie(t: StructureTensor) -> bool:
    """Antisymmetry of the bracket (the identity then reduces to Jacobi)."""
    table = t.brackets
    return all(table.get((j, i), ()) == tuple((k, -x) for k, x in terms)
               for (i, j), terms in table.items())


def leibniz_kernel(t: StructureTensor) -> Subspace:
    """Span of all squares [x, x], via polarization on the basis.

    Generated by [e_i, e_i] together with [e_i, e_j] + [e_j, e_i] for i < j.
    """
    t.require_validated()
    n = t.dim
    gens: list[Vector] = []
    for i in range(n):
        gens.append(t.bracket_basis(i, i))
        for j in range(i + 1, n):
            gens.append(tuple(a + b for a, b in
                              zip(t.bracket_basis(i, j), t.bracket_basis(j, i))))
    return Subspace.from_vectors(gens, n)


def _annihilator(t: StructureTensor, two_sided: bool) -> Subspace:
    """{x : [x, e_j] = 0, and [e_j, x] = 0 when two_sided, for every j}."""
    eqs: dict[tuple, dict[int, Fraction]] = {}
    for (i, j), terms in t.brackets.items():
        for k, co in terms:
            eqs.setdefault(("left", j, k), {})[i] = co
            if two_sided:
                eqs.setdefault(("right", i, k), {})[j] = co
    return _nullspace_of(((coeffs, tag) for tag, coeffs in eqs.items()), t.dim)


def left_center(t: StructureTensor) -> Subspace:
    """{x : [x, y] = 0 for all y}."""
    return _annihilator(t, two_sided=False)


def center(t: StructureTensor) -> Subspace:
    """{x : [x, y] = [y, x] = 0 for all y}."""
    return _annihilator(t, two_sided=True)


def is_ideal(t: StructureTensor, s: Subspace) -> bool:
    """Two-sided ideal test: [S, L] and [L, S] stay inside S."""
    if s.ambient_dim != t.dim:
        raise ValueError("subspace ambient dimension differs from the algebra")
    for x in s.rows:
        for j in range(t.dim):
            e = {j: _ONE}
            if not (s.contains(dense(sparse_bracket(t, x, e), t.dim))
                    and s.contains(dense(sparse_bracket(t, e, x), t.dim))):
                return False
    return True


@dataclass(frozen=True)
class QuotientResult:
    """Quotient algebra data.

    tensor: structure constants of L/I on the complement coordinates;
    projection: (dim L/I) x (dim L) matrix of the canonical projection;
    section: (dim L) x (dim L/I) matrix picking the coordinate representatives
    (projection @ section is the identity);
    complement_columns: the ambient coordinates that survive (the non-pivot
    columns of the ideal's RREF basis).
    """
    tensor: StructureTensor
    projection: Matrix
    section: Matrix
    ideal: Subspace
    complement_columns: tuple[int, ...]


def quotient(t: StructureTensor, ideal: Subspace) -> QuotientResult:
    """L/I with the complement-coordinate convention.

    The representatives are the ambient basis vectors at the non-pivot
    columns of I's canonical basis; the projection sends v to the residual
    of v after reduction by I, read off on those coordinates.
    """
    t.require_validated()
    if not is_ideal(t, ideal):
        raise ValueError("subspace is not a two-sided ideal")
    n = t.dim
    comp = tuple(j for j in range(n) if j not in set(ideal.pivots))
    m = len(comp)
    proj_rows = []
    reduced_basis = [ideal.reduce(unit_vector(n, j)) for j in range(n)]
    for pos in range(m):
        proj_rows.append([reduced_basis[j][comp[pos]] for j in range(n)])
    projection = Matrix(proj_rows, cols=n)
    section = Matrix([[1 if comp[pos] == i else 0 for pos in range(m)]
                      for i in range(n)], cols=m)
    where = {j: s for s, j in enumerate(comp)}
    table = {(where[i], where[j]): {u: sum((row[k] * x for k, x in terms), _ZERO)
                                for u, row in enumerate(projection.entries)}
             for (i, j), terms in t.brackets.items() if i in where and j in where}
    labels = None
    if t.labels is not None:
        labels = [t.labels[j] for j in comp]
    return QuotientResult(
        tensor=StructureTensor(m, table, labels=labels),
        projection=projection,
        section=section,
        ideal=ideal,
        complement_columns=comp,
    )


# ---------------------------------------------------------------------------
# hemisemidirect products


class ModuleAction:
    """A left module over a Lie algebra, given by one matrix per basis element.

    Checks the axiom X.(Y.v) - Y.(X.v) = [X,Y].v on the basis at
    construction time and refuses inconsistent data.
    """

    def __init__(self, lie: StructureTensor, matrices: Sequence[Matrix]):
        if len(matrices) != lie.dim:
            raise ValueError("need one action matrix per Lie basis element")
        if not is_lie(lie):
            raise ValueError("module actions are defined over Lie algebras")
        lie.require_validated()
        dims = {(m.rows, m.cols) for m in matrices}
        if len(dims) > 1 or any(r != c for r, c in dims):
            raise ValueError("action matrices must be square and equal-sized")
        self.lie = lie
        self.matrices = tuple(matrices)
        self.lie_dim = lie.dim
        self.module_dim = matrices[0].rows if matrices else 0
        for i in range(lie.dim):
            for j in range(lie.dim):
                lhs = self.matrices[i] @ self.matrices[j] - self.matrices[j] @ self.matrices[i]
                rhs = Matrix.zeros(self.module_dim, self.module_dim)
                for k, co in lie.brackets.get((i, j), ()):
                    rhs = rhs + self.matrices[k].scale(co)
                if lhs != rhs:
                    raise ValueError(
                        f"module axiom fails on basis pair ({i},{j})")

    def __repr__(self):
        return f"ModuleAction(lie_dim={self.lie_dim}, module_dim={self.module_dim})"


def hemisemidirect(lie: StructureTensor, action: ModuleAction,
                   labels: Optional[Sequence[str]] = None) -> StructureTensor:
    """Leibniz algebra on L + V with [X+a, Y+b] = [X,Y] + X.b.

    The module part brackets to zero on the left, which makes the result a
    left Leibniz algebra whenever L is Lie and V is a left module; V sits
    inside the Leibniz kernel.
    """
    if action.lie != lie:
        raise ValueError("action was built over a different Lie algebra")
    m, d = lie.dim, action.module_dim
    table = dict(lie.brackets)
    for i, mat in enumerate(action.matrices):
        for b in range(d):
            table[i, m + b] = {m + a: mat.entries[a][b] for a in range(d)}
    if labels is None and lie.labels is not None:
        labels = list(lie.labels) + [f"v{b + 1}" for b in range(d)]
    return StructureTensor(m + d, table, labels=labels)
