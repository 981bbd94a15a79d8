"""Exact linear algebra over the rationals.

Every entry is a fractions.Fraction; no floating point appears anywhere in
this package. Vectors are dense tuples at the API edge and sparse dicts
{index: coefficient} inside; Matrix is the dense type for linear maps.

The workhorse is an incremental sparse row reducer over primitive integer
rows (denominators are cleared on input, rows are re-normalized by their gcd
after each combination). It serves three purposes:

* canonicalizing generating sets into the unique RREF basis,
* computing nullspaces of large, very sparse constraint systems,
* solving inhomogeneous systems while remembering, for each pivot, which
  input equation created it -- the raw material for the infeasibility
  certificates used elsewhere in the package.

A Subspace keeps the reducer's canonical rows as they are: sparse, leading
entry 1, in pivot order. That basis is unique for a given row space, so
subspace equality is plain equality of the rows; a dense basis is built only
when basis or basis_vectors() is read.
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


def _acc(d: dict[int, Fraction], key: int, val: Fraction) -> None:
    """d[key] += val, dropping the key when the sum is zero."""
    w = d.get(key, _ZERO) + val
    if w:
        d[key] = w
    else:
        d.pop(key, None)


def sparse(v: Sequence[Fraction]) -> dict[int, Fraction]:
    """The nonzero coordinates of a dense vector, as {index: coefficient}."""
    return {i: x for i, x in enumerate(v) if x}


def dense(w: Mapping[int, Fraction], n: int) -> Vector:
    """The length-n coordinate vector of a sparse {index: coefficient} dict."""
    return tuple(w.get(k, _ZERO) for k in range(n))


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

    def scale(self, a: Scalar) -> Matrix:
        a = frac(a)
        return Matrix([[a * x for x in row] for row in self.entries], cols=self.cols)

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


def _nullspace_of(rows: Iterable[tuple[Mapping[int, Scalar], object]],
                  nunknowns: int) -> "Subspace":
    """Nullspace of the homogeneous equations given as (coeffs, tag) pairs."""
    sys = LinearSystem(nunknowns)
    for coeffs, tag in rows:
        sys.add_equation(coeffs, tag=tag)
    return sys.nullspace()


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of Q^n held by its unique RREF basis.

    ``rows`` is that basis exactly as RowReducer.canonical_rows() returns it:
    sparse dicts {index: Fraction} with leading entry 1 and sorted keys, in
    increasing pivot order. Equality and hashing compare ``rows``. Treat the
    dicts as read-only.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_by_pivot")

    def __init__(self, rows: Sequence[dict[int, Fraction]], ambient_dim: int):
        """Wrap rows that are already canonical; build through from_vectors."""
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "pivots", tuple(min(row) for row in self.rows))
        object.__setattr__(self, "_by_pivot", dict(zip(self.pivots, self.rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls([], ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls([{i: _ONE} for i in range(ambient_dim)], ambient_dim)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> Subspace:
        def checked(v: Sequence[Scalar]) -> dict[int, Fraction]:
            vv = as_vector(v)
            if len(vv) != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
            return sparse(vv)
        return cls._from_sparse(map(checked, vectors), ambient_dim)

    @classmethod
    def _from_sparse(cls, vectors: Iterable[Mapping[int, Scalar]], ambient_dim: int) -> Subspace:
        red = RowReducer(ambient_dim)
        for v in vectors:
            red.insert(_scale_to_int_row(v)[0])
        return cls(red.canonical_rows(), ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The canonical basis as a dense Matrix, one row per basis vector."""
        return Matrix(self.basis_vectors(), cols=self.ambient_dim)

    def basis_vectors(self) -> list[Vector]:
        return [dense(row, self.ambient_dim) for row in self.rows]

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
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f:
                for j, x in row.items():
                    w[j] -= f * x
        return tuple(w)

    def _residual(self, v: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """reduce() on a sparse vector, returning the sparse residual."""
        w = dict(v)
        # Basis rows vanish at every other pivot, so each pivot key of v is
        # eliminated once, by its own coefficient in v, in any order.
        for p, f in v.items():
            row = self._by_pivot.get(p)
            if row is not None:
                for j, x in row.items():
                    _acc(w, j, -f * x)
        return w

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

    def contains_row(self, row: Mapping[int, Fraction]) -> bool:
        """Membership of a sparse vector {index: coefficient}."""
        return not self._residual(row)

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains_row(row) for row in other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(row.items()) for row in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return Subspace._from_sparse(a.rows + b.rows, a.ambient_dim)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection through residuals modulo a, with b the smaller space.

    Residuals modulo a are linear, so for the basis rows B_1..B_q of b the
    combination sum_j z_j B_j lies in a exactly when sum_j z_j r_j = 0, where
    r_j is the residual of B_j. That is one equation per coordinate in the q
    unknowns z, and each kernel vector z gives one spanning vector of the
    intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    if b.dim > a.dim:
        a, b = b, a
    eqs: dict[int, dict[int, Fraction]] = {}
    for j, row in enumerate(b.rows):
        for t, x in a._residual(row).items():
            eqs.setdefault(t, {})[j] = x
    if not eqs:
        return b
    vectors = []
    for z in _nullspace_of(((eqs[t], t) for t in sorted(eqs)), b.dim).rows:
        w: dict[int, Fraction] = {}
        for j, zj in z.items():
            for t, x in b.rows[j].items():
                _acc(w, t, zj * x)
        vectors.append(w)
    return Subspace._from_sparse(vectors, n)
