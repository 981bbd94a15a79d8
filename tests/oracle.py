"""Independent dense oracle used to pin expected dimensions in the tests.

Everything here is deliberately written the slow, obvious way: identities are
evaluated on basis vectors straight from the structure constants, the
resulting dense systems go to sympy for exact elimination. No code is shared
with the package's sparse incremental solver, so agreement between the two
is meaningful. Only use on small algebras (dim <= 4); the frozen values for
the seven-dimensional solvable example were produced by the same assembly
with modular-arithmetic elimination at two large primes.
"""

from fractions import Fraction

import sympy


def brk(t, x, y):
    """Bracket of coordinate vectors, straight from the tensor entries."""
    n = t.dim
    out = [Fraction(0)] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            if not y[j]:
                continue
            for k in range(n):
                if t.c[k][i][j]:
                    out[k] += x[i] * y[j] * t.c[k][i][j]
    return out


def _unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def is_derivation(t, d):
    """Whether D[ei,ej] = [Dei,ej] + [ei,Dej] on every basis pair.

    ``d`` is the dense matrix of D: d[r][s] is entry r of D(e_s).
    """
    n = t.dim

    def apply(v):
        return [sum((d[r][s] * v[s] for s in range(n)), Fraction(0)) for r in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = apply(brk(t, _unit(n, i), _unit(n, j)))
            a = brk(t, apply(_unit(n, i)), _unit(n, j))
            b = brk(t, _unit(n, i), apply(_unit(n, j)))
            if any(lhs[k] != a[k] + b[k] for k in range(n)):
                return False
    return True


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in rows])


def rref_rows(vectors):
    """Nonzero rows of sympy's reduced row echelon form, as Fraction tuples."""
    if not vectors:
        return []
    r, pivots = _sym(vectors).rref()
    return [tuple(Fraction(int(x.p), int(x.q)) for x in r.row(i))
            for i in range(len(pivots))]


def rank(vectors):
    """Rank of the span of the given coordinate vectors."""
    return _sym(vectors).rank() if vectors else 0


def _nullity(cols):
    if not cols:
        return 0
    # equations that vanish on every column do not change the rank
    m = sympy.Matrix([[col[r] for col in cols] for r in range(len(cols[0]))
                      if any(col[r] for col in cols)])
    return len(cols) - m.to_DM().rank() if m.rows else len(cols)


def derivation_dim(t):
    """Nullity of the defect map D -> (D[ei,ej] - [Dei,ej] - [ei,Dej])_{i,j}."""
    n = t.dim
    cols = []
    for r in range(n):
        for s in range(n):
            col = []
            for i in range(n):
                for j in range(n):
                    w = brk(t, _unit(n, i), _unit(n, j))
                    dv = [w[s] if k == r else Fraction(0) for k in range(n)]
                    a = brk(t, _unit(n, r), _unit(n, j)) if i == s else [Fraction(0)] * n
                    b = brk(t, _unit(n, i), _unit(n, r)) if j == s else [Fraction(0)] * n
                    col.extend(dv[k] - a[k] - b[k] for k in range(n))
            cols.append(col)
    return _nullity(cols)


def inner_dim(t):
    """Rank of the span of all left-multiplication operators."""
    n = t.dim
    cols = []
    for i in range(n):
        col = []
        for j in range(n):
            col.extend(brk(t, _unit(n, i), _unit(n, j)))
        cols.append(col)
    m = sympy.Matrix([[col[r] for col in cols] for r in range(len(cols[0]))])
    return m.rank()


def _elementary_tensor_nullity(t, second_rule):
    """Nullity of a stacked slice-defect map over elementary bilinear tensors.

    For each elementary tensor B the column records, on all basis triples
    (x, y, z), the defect of the left-slice rule
    B(x,[y,z]) = [B(x,y),z] + [y,B(x,z)], then ``second_rule(B, x, y, z)``,
    the defect of the rule on the first argument.
    """
    n = t.dim
    units = [_unit(n, i) for i in range(n)]
    triples = [(x, y, z) for x in units for y in units for z in units]
    cols = []
    for p in range(n):
        for q in range(n):
            for m in range(n):
                def bval(x, y):
                    return [x[p] * y[q] if k == m else 0 for k in range(n)]
                col = []
                for x, y, z in triples:
                    col.extend(u - v - w for u, v, w in zip(
                        bval(x, brk(t, y, z)), brk(t, bval(x, y), z), brk(t, y, bval(x, z))))
                for x, y, z in triples:
                    col.extend(second_rule(bval, x, y, z))
                cols.append(col)
    return _nullity(cols)


def biderivation_dim(t):
    """Biderivations: left slices and right slices are derivations, the second
    rule being B([x,y],z) = [B(x,z),y] + [x,B(y,z)]."""
    def right_slice_rule(b, x, y, z):
        return [u - v - w for u, v, w in zip(
            b(brk(t, x, y), z), brk(t, b(x, z), y), brk(t, x, b(y, z)))]
    return _elementary_tensor_nullity(t, right_slice_rule)


def loday_dim(t):
    """The Loday variant: left slices are derivations, and the first argument
    obeys B([x,y],z) = [x,B(y,z)] - [y,B(x,z)]."""
    def first_slot_minus_rule(b, x, y, z):
        return [u - v + w for u, v, w in zip(
            b(brk(t, x, y), z), brk(t, x, b(y, z)), brk(t, y, b(x, z)))]
    return _elementary_tensor_nullity(t, first_slot_minus_rule)


def commuting_dim(t):
    """Nullity of the polarized commuting-map conditions over elementary maps."""
    n = t.dim
    cols = []
    for r in range(n):
        for s in range(n):
            def g(v):
                return [v[s] if k == r else Fraction(0) for k in range(n)]
            col = []
            for i in range(n):
                for j in range(i, n):
                    a = brk(t, g(_unit(n, i)), _unit(n, j))
                    b = brk(t, g(_unit(n, j)), _unit(n, i))
                    col.extend(a[k] + b[k] for k in range(n))
                    c1 = brk(t, _unit(n, i), g(_unit(n, j)))
                    c2 = brk(t, _unit(n, j), g(_unit(n, i)))
                    col.extend(c1[k] + c2[k] for k in range(n))
            cols.append(col)
    return _nullity(cols)


def skew_commuting_dim(t):
    """Nullity of the polarized [g(x),y] = [g(y),x] conditions."""
    n = t.dim
    cols = []
    for r in range(n):
        for s in range(n):
            def g(v):
                return [v[s] if k == r else Fraction(0) for k in range(n)]
            col = []
            for i in range(n):
                for j in range(i + 1, n):
                    a = brk(t, g(_unit(n, i)), _unit(n, j))
                    b = brk(t, g(_unit(n, j)), _unit(n, i))
                    col.extend(a[k] - b[k] for k in range(n))
            cols.append(col)
    return _nullity(cols)
