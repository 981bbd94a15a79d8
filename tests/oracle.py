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
    m = sympy.Matrix([[col[r] for col in cols] for r in range(len(cols[0]))])
    return len(cols) - m.rank()


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


def biderivation_dim(t):
    """Nullity of the stacked slice-defect map over elementary bilinear tensors.

    For each elementary tensor B the column records, on all basis triples,
    the defects of B(x,[y,z]) = [B(x,y),z] + [y,B(x,z)] and
    B([x,y],z) = [B(x,z),y] + [x,B(y,z)].
    """
    n = t.dim
    units = [_unit(n, i) for i in range(n)]
    table = [[brk(t, units[i], units[j]) for j in range(n)] for i in range(n)]
    cols = []
    for p in range(n):
        for q in range(n):
            for m in range(n):
                def bval(x, y):
                    return [x[p] * y[q] if k == m else Fraction(0) for k in range(n)]
                col = []
                for i in range(n):
                    for j in range(n):
                        for l in range(n):
                            t1 = bval(units[i], table[j][l])
                            t2 = brk(t, bval(units[i], units[j]), units[l])
                            t3 = brk(t, units[j], bval(units[i], units[l]))
                            col.extend(t1[k] - t2[k] - t3[k] for k in range(n))
                for i in range(n):
                    for j in range(n):
                        for l in range(n):
                            t1 = bval(table[i][j], units[l])
                            t2 = brk(t, bval(units[i], units[l]), units[j])
                            t3 = brk(t, units[i], bval(units[j], units[l]))
                            col.extend(t1[k] - t2[k] - t3[k] for k in range(n))
                cols.append(col)
    return _nullity(cols)


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
