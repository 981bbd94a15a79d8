"""Exact linear algebra: frozen small cases plus randomized invariants.

Expected values in the frozen cases are hand-derived (they are small enough
to do on paper); the randomized blocks check structural invariants that hold
for every input, with fixed seeds so failures replay. Ranks and reduced
echelon forms in the randomized blocks come from sympy (tests/oracle.py),
which shares no code with the package's sparse reducer.
"""

import random
from fractions import Fraction

import pytest

import oracle
from leibnizalg.linalg import (
    LinearSystem,
    Matrix,
    Subspace,
    subspace_intersection,
    subspace_sum,
)


def F(x):
    return Fraction(x)


def _system(m: Matrix, b=None) -> LinearSystem:
    """The system m @ x = b (b = 0 when omitted), one equation per row."""
    sys = LinearSystem(m.cols)
    for i, row in enumerate(m.entries):
        sys.add_equation(dict(enumerate(row)), 0 if b is None else b[i], tag=i)
    return sys


def _solve(m: Matrix, b):
    """One solution of m @ x = b (free unknowns zero), or None if infeasible."""
    sys = _system(m, b)
    return sys.particular_solution() if sys.consistent else None


def test_nullspace_frozen():
    ker = _system(Matrix([[1, 2]])).nullspace()
    assert ker.dim == 1
    assert ker == Subspace.from_vectors([(-2, 1)], 2)
    # canonical basis row is normalized to leading one
    assert ker.rows == ({0: F(1), 1: Fraction(-1, 2)},)
    assert ker.basis == Matrix([[1, Fraction(-1, 2)]])
    assert _system(Matrix.identity(3)).nullspace().dim == 0
    assert _system(Matrix.zeros(2, 3)).nullspace() == Subspace.full(3)


def test_solve_frozen():
    # consistent with free column: free unknowns pinned to zero
    assert _solve(Matrix([[1, 2], [2, 4]]), (1, 2)) == (F(1), F(0))
    assert _solve(Matrix([[1, 2], [2, 4]]), (1, 3)) is None
    m = Matrix([[1, 0], [0, 2]])
    assert _solve(m, (5, 3)) == (F(5), Fraction(3, 2))
    # solution verifies
    x = _solve(Matrix([[1, 2, 3], [0, 1, 1]]), (6, 2))
    assert x is not None
    assert Matrix([[1, 2, 3], [0, 1, 1]]).apply(x) == (F(6), F(2))


def test_subspace_canonical_across_generating_sets():
    gens_a = [(1, 2, 0), (0, 0, 1)]
    gens_b = [(2, 4, 2), (0, 0, -3), (1, 2, 1)]
    sa = Subspace.from_vectors(gens_a, 3)
    sb = Subspace.from_vectors(gens_b, 3)
    assert sa == sb
    assert sa.basis == sb.basis
    assert sa.dim == 2
    assert sa.contains((3, 6, 7))
    assert not sa.contains((1, 0, 0))


def test_subspace_reduce_residual():
    s = Subspace.from_vectors([(1, 0, 2)], 3)
    res = s.reduce((3, 1, 7))
    # residual lives on non-pivot coordinates and differs by a member of s
    assert res[0] == 0
    assert s.contains((3 - res[0], 1 - res[1], 7 - res[2]))
    assert s.reduce((2, 0, 4)) == (F(0), F(0), F(0))


def test_sum_and_intersection_frozen():
    u = Subspace.from_vectors([(1, 0)], 2)
    w = Subspace.from_vectors([(1, 1)], 2)
    assert subspace_intersection(u, w) == Subspace.zero(2)
    assert subspace_sum(u, w) == Subspace.full(2)
    plane = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3)
    line = Subspace.from_vectors([(1, 1, 0)], 3)
    assert subspace_intersection(plane, line) == line


def _random_matrix(rng, rows, cols, density=0.7):
    return Matrix([[F(rng.randint(-4, 4)) / rng.randint(1, 3)
                    if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("seed", range(12))
def test_rank_nullity_random(seed):
    rng = random.Random(1000 + seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = _random_matrix(rng, rows, cols)
    sys = _system(m)
    ker = sys.nullspace()
    assert sys.rank == oracle.rank(m.entries)
    assert sys.rank + ker.dim == cols
    for v in ker.basis_vectors():
        assert not any(m.apply(v))


@pytest.mark.parametrize("seed", range(12))
def test_dimension_formula_random(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 6)
    u = Subspace.from_vectors([_random_matrix(rng, 1, n).row(0)
                               for _ in range(rng.randint(0, n))], n)
    w = Subspace.from_vectors([_random_matrix(rng, 1, n).row(0)
                               for _ in range(rng.randint(0, n))], n)
    s = subspace_sum(u, w)
    i = subspace_intersection(u, w)
    assert s.dim + i.dim == u.dim + w.dim
    for v in i.basis_vectors():
        assert u.contains(v) and w.contains(v)
    for v in u.basis_vectors():
        assert s.contains(v)


@pytest.mark.parametrize("seed", range(8))
def test_canonicality_random(seed):
    # same span, shuffled and rescaled generators -> identical basis matrix
    rng = random.Random(3000 + seed)
    n = rng.randint(2, 6)
    base = [_random_matrix(rng, 1, n).row(0) for _ in range(rng.randint(1, n))]
    s1 = Subspace.from_vectors(base, n)
    mixed = []
    for v in base:
        c = F(rng.choice([1, 2, -1, 3])) / rng.choice([1, 2])
        mixed.append(tuple(c * x for x in v))
    extra = []
    for _ in range(2):
        picks = rng.sample(range(len(base)), k=min(2, len(base)))
        extra.append(tuple(sum(base[p][j] for p in picks) for j in range(n)))
    rng.shuffle(mixed)
    s2 = Subspace.from_vectors(mixed + extra, n)
    assert s1.rows == s2.rows
    assert s1 == s2 and hash(s1) == hash(s2)
    # and sympy's dense rref agrees with the sparse engine
    assert s1.basis_vectors() == oracle.rref_rows(mixed + extra)


@pytest.mark.parametrize("seed", range(8))
def test_solve_random_consistency(seed):
    rng = random.Random(4000 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = _random_matrix(rng, rows, cols)
    xtrue = tuple(F(rng.randint(-3, 3)) for _ in range(cols))
    b = m.apply(xtrue)
    sys = _system(m, b)
    assert sys.consistent
    assert sys.rank == oracle.rank(m.entries)
    assert m.apply(sys.particular_solution()) == b


def test_linear_system_contradiction_bookkeeping():
    sys = LinearSystem(2)
    assert sys.add_equation({0: 1}, 0, tag="first")      # x0 = 0
    assert sys.add_equation({1: 2}, 4, tag="second")     # x1 = 2
    assert not sys.add_equation({0: 1, 1: 1}, 5, tag="third")
    c = sys.contradiction
    assert c is not None and c.tag == "third"
    assert c.defect == F(3)           # demanded 5, pivots force x0 + x1 = 2
    assert set(c.used_tags) == {"first", "second"}
    steps = sys.pivot_steps()
    assert [s.tag for s in steps] == ["first", "second"]
    assert [s.value for s in steps] == [F(0), F(2)]


def test_linear_system_nullspace_and_particular():
    sys = LinearSystem(3)
    sys.add_equation({0: 1, 1: 1}, 3, tag=0)
    assert sys.consistent
    x = sys.particular_solution()
    assert x == (F(3), F(0), F(0))
    ker = sys.nullspace()
    assert ker.dim == 2
    assert ker.contains((1, -1, 0)) and ker.contains((0, 0, 1))


def test_fraction_scaling_in_system():
    sys = LinearSystem(1)
    sys.add_equation({0: Fraction(1, 3)}, Fraction(5, 6), tag="q")
    assert sys.particular_solution() == (Fraction(5, 2),)
    sys2 = LinearSystem(1)
    sys2.add_equation({0: Fraction(1, 3)}, 1, tag="a")
    assert not sys2.add_equation({0: Fraction(1, 3)}, 2, tag="b")
    assert sys2.contradiction.defect == 1


def _random_space(rng, n, k):
    density = rng.choice([0.3, 0.7])
    return Subspace.from_vectors(
        [_random_matrix(rng, 1, n, density).row(0) for _ in range(k)], n)


@pytest.mark.parametrize("seed", range(16))
def test_intersection_matches_oracle_random(seed):
    rng = random.Random(5000 + seed)
    n = rng.randint(1, 12)
    u = _random_space(rng, n, rng.randint(0, n))
    w = _random_space(rng, n, rng.randint(0, n))
    # a shared part c makes the intersection of the last pair nonzero
    c = _random_space(rng, n, rng.randint(1, 3))
    pairs = [(u, w), (w, u), (subspace_sum(u, c), subspace_sum(w, c)), (u, Subspace.zero(n)), (Subspace.zero(n), w),
             (Subspace.full(n), w), (u, Subspace.full(n)), (u, u),
             (u, subspace_sum(u, w)), (subspace_sum(u, w), w)]
    for a, b in pairs:
        i = subspace_intersection(a, b)
        va, vb = a.basis_vectors(), b.basis_vectors()
        # dim(U n W) = dim U + dim W - dim(U + W), with dim(U + W) from sympy
        assert i.dim == a.dim + b.dim - oracle.rank(va + vb)
        for v in i.basis_vectors():
            assert oracle.rank(va + [v]) == a.dim
            assert oracle.rank(vb + [v]) == b.dim
        # and the answer is the canonical basis of its span
        assert i.basis_vectors() == oracle.rref_rows(i.basis_vectors())


def test_equal_spaces_hash_equal():
    rng = random.Random(6000)
    for n in range(1, 9):
        s = _random_space(rng, n, rng.randint(1, n))
        gens = s.basis_vectors()
        if not gens:
            continue
        rng.shuffle(gens)
        mixed = [tuple(3 * x - y for x, y in zip(gens[0], v)) for v in gens]
        t = Subspace.from_vectors(mixed + [gens[0]], n)
        assert s == t and hash(s) == hash(t)
    full = Subspace.from_vectors([(1, 1, 0), (0, 2, 0), (5, 0, 7)], 3)
    assert full == Subspace.full(3) and hash(full) == hash(Subspace.full(3))
    zero = Subspace.from_vectors([(0, 0)], 2)
    assert zero == Subspace.zero(2) and hash(zero) == hash(Subspace.zero(2))


@pytest.mark.parametrize("seed", range(6))
def test_dense_views_agree_with_rows(seed):
    rng = random.Random(7000 + seed)
    n = rng.randint(1, 10)
    s = _random_space(rng, n, rng.randint(0, n))
    vectors = s.basis_vectors()
    assert s.basis.entries == tuple(vectors)
    assert s.basis.cols == n and s.basis.rows == s.dim == len(s.rows)
    assert [{k: x for k, x in enumerate(v) if x} for v in vectors] == list(s.rows)
    for row, p in zip(s.rows, s.pivots):
        assert min(row) == p and row[p] == 1
    assert list(s.pivots) == sorted(set(s.pivots))
