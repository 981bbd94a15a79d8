"""Exact linear algebra over the rationals.

Every entry is a fractions.Fraction; no floating point appears anywhere in
this package. Subspaces of Q^n are stored through their reduced row echelon
basis, which is unique for a given row space, so subspace equality is plain
structural equality of the basis matrices.

The workhorse is an incremental sparse row reducer over primitive integer
rows (denominators are cleared on input, rows are re-normalized by their gcd
after each combination). It serves three purposes:

* canonicalizing generating sets into the unique RREF basis,
* computing nullspaces of large, very sparse constraint systems,
* solving inhomogeneous systems while remembering, for each pivot, which
  input equation created it -- the raw material for the infeasibility
  certificates used elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x: Scalar) -> Fraction:
    """Coerce an int, a 'p/q' string or a Fraction to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def as_vector(xs: Iterable[Scalar]) -> Vector:
    return tuple(frac(x) for x in xs)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]], cols: int | None = None):
        data = tuple(tuple(frac(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} but rows have width {width}")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> Matrix:
        cols = [tuple(frac(x) for x in c) for c in columns]
        if cols:
            height = len(cols[0])
        else:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            height = rows
        return cls([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> Matrix:
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], cols=self.rows)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), _ZERO)
                     for row in self.entries)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = other.transpose().entries
        return Matrix([[sum((r[k] * c[k] for k in range(self.cols)), _ZERO) for c in ot]
                       for r in self.entries], cols=other.cols)

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)], cols=self.cols)

    def __sub__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)], cols=self.cols)

    def __neg__(self) -> Matrix:
        return Matrix([[-a for a in row] for row in self.entries], cols=self.cols)

    def scale(self, a: Scalar) -> Matrix:
        a = frac(a)
        return Matrix([[a * x for x in row] for row in self.entries], cols=self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


# ---------------------------------------------------------------------------
# sparse integer RREF core


def _normalize_int_row(row: dict[int, int]) -> None:
    """Divide by the gcd of the entries and make the leading entry positive."""
    if not row:
        return
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g not in (0, 1):
        for k in row:
            row[k] //= g


class RowReducer:
    """Incremental RREF of sparse integer rows.

    Pivot rows are kept fully reduced against each other (true reduced
    echelon form), primitive, with a positive leading coefficient. Row keys
    are column indices; values are nonzero ints.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> row
        self.pivot_seq: list[int] = []             # pivot columns in creation order

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict[int, int], used: list[int] | None = None) -> tuple[dict[int, int], int]:
        """Fully reduce `row` against the current pivots.

        Returns (reduced row, factor): the reduced row equals
        factor * row - (combination of pivot rows), factor > 0.
        Appends the pivot columns that were actually used to `used`.
        """
        row = {k: v for k, v in row.items() if v}
        factor = 1
        # Pivot rows have zeros at every other pivot column, so each original
        # key needs at most one elimination and the keys introduced along the
        # way are never pivot columns.
        for c in sorted(row):
            if row.get(c, 0) == 0:
                continue
            piv = self.rows.get(c)
            if piv is None:
                continue
            a = row[c]
            lead = piv[c]
            g = gcd(a, lead)
            fr, fp = lead // g, a // g
            if fr != 1:
                factor *= fr
                for k in row:
                    row[k] *= fr
            for k, v in piv.items():
                nv = row.get(k, 0) - fp * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
            if used is not None:
                used.append(c)
        return row, factor

    def insert(self, row: dict[int, int]) -> int | None:
        """Reduce `row` and adopt it as a new pivot row.

        Returns the new pivot column, or None if the row was dependent.
        """
        row, _ = self.reduce(row)
        return self.insert_reduced(row)

    def insert_reduced(self, row: dict[int, int]) -> int | None:
        if not row:
            return None
        _normalize_int_row(row)
        c = min(row)
        lead = row[c]
        # keep full reduction: clear column c from every existing pivot row
        for c2, q in self.rows.items():
            a = q.get(c, 0)
            if not a:
                continue
            g = gcd(a, lead)
            fq, fr = lead // g, a // g
            if fq != 1:
                for k in q:
                    q[k] *= fq
            for k, v in row.items():
                nv = q.get(k, 0) - fr * v
                if nv:
                    q[k] = nv
                else:
                    q.pop(k, None)
            _normalize_int_row(q)
        self.rows[c] = row
        self.pivot_seq.append(c)
        return c

    def canonical_rows(self) -> list[dict[int, Fraction]]:
        """Pivot rows as Fraction dicts with leading entry 1, sorted by pivot."""
        out = []
        for c in sorted(self.rows):
            row = self.rows[c]
            lead = row[c]
            out.append({k: Fraction(v, lead) for k, v in sorted(row.items())})
        return out


def _scale_to_int_row(coeffs: Mapping[int, Scalar]) -> tuple[dict[int, int], int]:
    """Clear denominators; returns (integer row, multiplier applied)."""
    row: dict[int, Fraction] = {}
    for k, v in coeffs.items():
        f = frac(v)
        if f != 0:
            row[k] = f
    if not row:
        return {}, 1
    mult = 1
    for f in row.values():
        d = f.denominator
        mult = mult * d // gcd(mult, d)
    return {k: int(f * mult) for k, f in row.items()}, mult


# ---------------------------------------------------------------------------
# linear systems with tagged equations


@dataclass(frozen=True)
class PivotStep:
    """One unknown pinned during elimination.

    `value` is the forced value when the pivot row, at query time, constrains
    the single unknown by itself; None when free unknowns are still involved.
    """
    tag: object
    unknown: int
    value: Optional[Fraction]


@dataclass(frozen=True)
class Contradiction:
    """Witness that an inhomogeneous system is infeasible.

    The equation `tag` reduced to 0 = defect (defect != 0) against the pivots
    created by the equations in `used_tags`.
    """
    tag: object
    defect: Fraction
    used_tags: tuple


class LinearSystem:
    """Incremental exact solver for tagged linear equations a.x = b.

    Equations are processed in the order they are added; the first equation
    that becomes inconsistent is recorded in `contradiction` together with
    the tags of the pivot rows used while reducing it.
    """

    def __init__(self, nunknowns: int):
        self.nunknowns = nunknowns
        self._rhs_col = nunknowns
        self._red = RowReducer(nunknowns + 1)
        self._tags: dict[int, object] = {}  # pivot column -> tag of creating equation
        self.contradiction: Optional[Contradiction] = None

    def add_equation(self, coeffs: Mapping[int, Scalar], rhs: Scalar = 0, tag: object = None) -> bool:
        """Add one equation. Returns False once the system is inconsistent."""
        if self.contradiction is not None:
            return False
        full: dict[int, Fraction] = {}
        for k, v in coeffs.items():
            f = frac(v)
            if f != 0:
                if not 0 <= k < self.nunknowns:
                    raise ValueError(f"unknown index {k} out of range")
                full[k] = f
        b = frac(rhs)
        if b != 0:
            full[self._rhs_col] = -b
        if not full:
            return True
        row, mult = _scale_to_int_row(full)
        used: list[int] = []
        reduced, factor = self._red.reduce(row, used)
        if not reduced:
            return True
        c = min(reduced)
        if c == self._rhs_col:
            # reduced row reads  0 = defect  in the original equation's units
            defect = Fraction(-reduced[c], factor * mult)
            used_tags = tuple(self._tags[u] for u in used if u in self._tags)
            self.contradiction = Contradiction(tag=tag, defect=defect, used_tags=used_tags)
            return False
        piv = self._red.insert_reduced(reduced)
        if piv is not None:
            self._tags[piv] = tag
        return True

    def add_equations(self, eqs: Iterable[tuple[Mapping[int, Scalar], Scalar, object]]) -> bool:
        for coeffs, rhs, tag in eqs:
            if not self.add_equation(coeffs, rhs, tag):
                return False
        return True

    @property
    def consistent(self) -> bool:
        return self.contradiction is None

    @property
    def rank(self) -> int:
        return self._red.rank

    def pivot_steps(self) -> list[PivotStep]:
        """The unknowns pinned so far, in elimination order."""
        steps = []
        for c in self._red.pivot_seq:
            row = self._red.rows.get(c)
            if row is None:
                continue
            others = [k for k in row if k not in (c, self._rhs_col)]
            if others:
                value = None
            else:
                value = Fraction(-row.get(self._rhs_col, 0), row[c])
            steps.append(PivotStep(tag=self._tags.get(c), unknown=c, value=value))
        return steps

    def particular_solution(self) -> Vector:
        """The solution with every free unknown set to zero."""
        if self.contradiction is not None:
            raise ValueError("system is inconsistent")
        x = [_ZERO] * self.nunknowns
        for c, row in self._red.rows.items():
            if c == self._rhs_col:
                continue
            x[c] = Fraction(-row.get(self._rhs_col, 0), row[c])
        return tuple(x)

    def nullspace(self) -> "Subspace":
        """Nullspace of the homogeneous part, as a canonical Subspace."""
        pivots = set(self._red.rows) - {self._rhs_col}
        free = [c for c in range(self.nunknowns) if c not in pivots]
        special: list[dict[int, Fraction]] = []
        for f in free:
            v: dict[int, Fraction] = {f: _ONE}
            for c, row in self._red.rows.items():
                if c == self._rhs_col:
                    continue
                a = row.get(f, 0)
                if a:
                    v[c] = Fraction(-a, row[c])
            special.append(v)
        return Subspace._from_sparse(special, self.nunknowns)


# ---------------------------------------------------------------------------
# dense RREF (textbook version, used for the public rref/solve on matrices;
# deliberately a separate code path from RowReducer so the two can be played
# against each other in tests)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form, same shape, zero rows at the bottom."""
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return Matrix(a, cols=ncols)


def rank(m: Matrix) -> int:
    rr = rref(m)
    return sum(1 for row in rr.entries if any(x != 0 for x in row))


def nullspace(m: Matrix) -> "Subspace":
    """Kernel {x : m @ x = 0} as a canonical Subspace of Q^cols."""
    sys = LinearSystem(m.cols)
    for i in range(m.rows):
        sys.add_equation({j: m.entries[i][j] for j in range(m.cols)}, 0, tag=i)
    return sys.nullspace()


def solve(m: Matrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """One solution of m @ x = b (free unknowns zero), or None if infeasible."""
    bv = as_vector(b)
    if len(bv) != m.rows:
        raise ValueError("dimension mismatch")
    sys = LinearSystem(m.cols)
    for i in range(m.rows):
        if not sys.add_equation({j: m.entries[i][j] for j in range(m.cols)}, bv[i], tag=i):
            return None
    return sys.particular_solution()


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^n held by its unique RREF basis (no zero rows)."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, basis: Matrix, ambient_dim: int | None = None, _canonical: bool = False):
        if ambient_dim is None:
            ambient_dim = basis.cols
        if basis.cols != ambient_dim:
            raise ValueError("basis width differs from ambient dimension")
        if not _canonical:
            canon = Subspace.from_vectors(basis.entries, ambient_dim)
            basis = canon.basis
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(
            next(j for j in range(ambient_dim) if row[j] != 0) for row in basis.entries))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(Matrix([], cols=ambient_dim), ambient_dim, _canonical=True)

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(Matrix.identity(ambient_dim), ambient_dim, _canonical=True)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> Subspace:
        red = RowReducer(ambient_dim)
        for v in vectors:
            vv = as_vector(v)
            if len(vv) != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
            red.insert(_scale_to_int_row(dict(enumerate(vv)))[0])
        return cls._from_reducer(red, ambient_dim)

    @classmethod
    def _from_sparse(cls, vectors: Iterable[Mapping[int, Scalar]], ambient_dim: int) -> Subspace:
        red = RowReducer(ambient_dim)
        for v in vectors:
            red.insert(_scale_to_int_row(v)[0])
        return cls._from_reducer(red, ambient_dim)

    @classmethod
    def _from_reducer(cls, red: RowReducer, ambient_dim: int) -> Subspace:
        rows = []
        for sparse in red.canonical_rows():
            row = [_ZERO] * ambient_dim
            for k, v in sparse.items():
                row[k] = v
            rows.append(row)
        return cls(Matrix(rows, cols=ambient_dim), ambient_dim, _canonical=True)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[Vector]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def reduce(self, v: Sequence[Scalar]) -> Vector:
        """Residual of v after eliminating the basis pivots.

        The residual is zero iff v lies in the subspace; in general v splits
        as (v - residual) + residual with the first part in the subspace and
        the residual supported on non-pivot coordinates. This is the
        coordinate projection used for quotients and 'membership modulo S'
        conditions.
        """
        w = list(as_vector(v))
        if len(w) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        for row, p in zip(self.basis.entries, self.pivots):
            f = w[p]
            if f != 0:
                for j in range(p, self.ambient_dim):
                    if row[j] != 0:
                        w[j] -= f * row[j]
        return tuple(w)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(row) for row in other.basis.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return Subspace.from_vectors(
        list(a.basis.entries) + list(b.basis.entries), a.ambient_dim)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel construction.

    If U has basis rows A_1..A_p and W has basis rows B_1..B_q, the vectors
    (y, z) with sum_i y_i A_i + sum_j z_j B_j = 0 parameterize the
    intersection through w = sum_i y_i A_i.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    p, q = a.dim, b.dim
    if p == 0 or q == 0:
        return Subspace.zero(n)
    sys = LinearSystem(p + q)
    arows, brows = a.basis.entries, b.basis.entries
    for t in range(n):
        coeffs: dict[int, Fraction] = {}
        for i in range(p):
            if arows[i][t] != 0:
                coeffs[i] = arows[i][t]
        for j in range(q):
            if brows[j][t] != 0:
                coeffs[p + j] = brows[j][t]
        sys.add_equation(coeffs, 0, tag=t)
    combos = sys.nullspace()
    vectors = []
    for y in combos.basis.entries:
        w = [_ZERO] * n
        for i in range(p):
            if y[i] != 0:
                for t in range(n):
                    if arows[i][t] != 0:
                        w[t] += y[i] * arows[i][t]
        vectors.append(w)
    return Subspace.from_vectors(vectors, n)


def subspace_contains(s: Subspace, v: Sequence[Scalar]) -> bool:
    return s.contains(v)
