"""Structure tensors: identity checking, invariant subspaces, constructions."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import leibnizalg
from leibnizalg.algebra import (
    BilinearTensor,
    LeibnizIdentityError,
    ModuleAction,
    StructureTensor,
    bilinear_to_row,
    bilinear_to_vec,
    bracket,
    center,
    check_left_leibniz,
    hemisemidirect,
    is_ideal,
    is_lie,
    left_center,
    leibniz_kernel,
    map_to_vec,
    opposite,
    quotient,
    row_to_bilinear,
    vec_to_bilinear,
    vec_to_map,
)
from leibnizalg.linalg import Matrix, Subspace, unit_vector
from leibnizalg import catalog


def test_tensor_construction_and_bracket():
    t = catalog.heisenberg()
    assert t.dim == 3
    assert t.bracket_basis(0, 1) == (0, 0, 1)
    assert t.bracket_basis(1, 0) == (0, 0, -1)
    assert tuple(bracket(t, (1, 0, 0), (0, 2, 0))) == (0, 0, 2)
    assert t.label(2) == "e3"


@pytest.mark.parametrize("entries", [
    {(0, 3): {0: 1}}, {(3, 0): {0: 1}}, {(0, 1): {3: 1}},
    {(-1, 0): {0: 1}}, {(0, -1): {0: 1}}, {(0, 1): {-1: 1}},
])
def test_tables_reject_out_of_range_indices(entries):
    # a negative index must not wrap around to the end of a dense view
    with pytest.raises(ValueError, match="out of range"):
        StructureTensor(3, entries)
    with pytest.raises(ValueError, match="out of range"):
        BilinearTensor.from_values(3, entries)


def test_from_brackets_rejects_bad_indices():
    # the sparse bracket table given to the constructor is checked on entry
    with pytest.raises(ValueError):
        StructureTensor(2, {(0, 2): {0: 1}})
    with pytest.raises(ValueError):
        StructureTensor(2, {(0, 1): {5: 1}})
    with pytest.raises(ValueError):
        StructureTensor(1, {}, labels=("a", "b"))


def test_left_leibniz_identity_detects_violations():
    # [e1,e1] = e2 with [e1,e2] = 0 breaks [x,[x,x]] = [x,[x,x]] + [[x,x],x]
    bad = StructureTensor(2, {(0, 0): {1: 1}, (1, 0): {1: 1}})
    violations = check_left_leibniz(bad)
    assert violations
    v = violations[0]
    assert (v.i, v.j, v.k) == (0, 0, 0)
    assert not bad.is_left_leibniz
    with pytest.raises(LeibnizIdentityError):
        bad.require_validated()
    # the catalog algebras all pass
    assert catalog.sl2().is_left_leibniz
    assert catalog.example_solvable(5).is_left_leibniz


def test_opposite_is_involutive_and_swaps_conventions():
    t = catalog.example_solvable(5)
    assert opposite(opposite(t)) == t
    # a strictly non-Lie left algebra usually fails the left identity reversed
    ex1 = catalog.example_affine_one()
    assert ex1.is_left_leibniz
    assert not is_lie(ex1)


def test_kernel_and_centers_on_knowns():
    heis = catalog.heisenberg()
    assert leibniz_kernel(heis).dim == 0
    assert left_center(heis) == Subspace.from_vectors([unit_vector(3, 2)], 3)
    assert center(heis) == left_center(heis)

    ex1 = catalog.example_affine_one()
    assert leibniz_kernel(ex1) == Subspace.from_vectors([unit_vector(3, 2)], 3)
    assert center(ex1).dim == 0

    solv = catalog.example_solvable(5)
    leib = leibniz_kernel(solv)
    assert leib.dim == 3
    # e3, e4, e5 span the kernel in the (e1..e5, x, y) basis order
    for i in (2, 3, 4):
        assert leib.contains(unit_vector(7, i))


def test_is_ideal():
    ex1 = catalog.example_affine_one()
    assert is_ideal(ex1, leibniz_kernel(ex1))
    assert is_ideal(ex1, Subspace.full(3))
    assert not is_ideal(ex1, Subspace.from_vectors([unit_vector(3, 0)], 3))


def test_quotient_by_kernel_is_lie():
    for t in (catalog.example_affine_one(), catalog.example_affine_two(),
              catalog.example_solvable(5)):
        q = quotient(t, leibniz_kernel(t))
        assert q.tensor.is_left_leibniz
        assert is_lie(q.tensor)
        assert q.tensor.dim == t.dim - leibniz_kernel(t).dim
        # projection then section is the identity on the quotient
        proj_sec = q.projection @ q.section
        assert proj_sec == Matrix.identity(q.tensor.dim)


def test_quotient_projection_respects_brackets():
    t = catalog.example_solvable(5)
    q = quotient(t, leibniz_kernel(t))
    n, m = t.dim, q.tensor.dim
    for i in range(n):
        for j in range(n):
            lifted = bracket(t, unit_vector(n, i), unit_vector(n, j))
            down = q.projection.apply(lifted)
            pi = q.projection.apply(unit_vector(n, i))
            pj = q.projection.apply(unit_vector(n, j))
            assert down == bracket(q.tensor, pi, pj)


def test_hemisemidirect_always_left_leibniz():
    lie = catalog.sl2()
    # adjoint action of sl2 on itself
    mats = [Matrix.from_columns(
        [bracket(lie, unit_vector(3, i), unit_vector(3, j)) for j in range(3)])
        for i in range(3)]
    action = ModuleAction(lie, mats)
    t = hemisemidirect(lie, action)
    assert t.dim == 6
    assert t.is_left_leibniz
    # module vectors bracket to zero on the left
    for i in range(3, 6):
        for j in range(6):
            assert tuple(bracket(t, unit_vector(6, i), unit_vector(6, j))) == (0,) * 6


def test_module_action_rejects_non_representations():
    lie = catalog.sl2()
    with pytest.raises(ValueError):
        ModuleAction(lie, [Matrix.identity(2), Matrix.zeros(2, 2), Matrix.zeros(2, 2)])


def test_vectorization_round_trips():
    t = catalog.example_affine_two()
    b = BilinearTensor(t.c)
    assert vec_to_bilinear(bilinear_to_vec(b), 4) == b
    m = Matrix([[1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4], [5, 0, 0, 0]], cols=4)
    assert vec_to_map(map_to_vec(m), 4) == m


def _random_entries(rng, n):
    """A sparse {(i, j): {k: coeff}} with zero coefficients and empty entries."""
    return {(i, j): {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for k in range(n) if rng.random() < 0.4}
            for i in range(n) for j in range(n) if rng.random() < 0.3}


def _tables(n, entries):
    return [StructureTensor(n, entries).brackets,
            BilinearTensor.from_values(n, entries).values]


def test_tables_are_canonical_whatever_the_insertion_order():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        entries = _random_entries(rng, n)
        items = list(entries.items())
        rng.shuffle(items)
        shuffled = {key: dict(reversed(list(terms.items()))) for key, terms in items}
        for build in (StructureTensor, BilinearTensor.from_values):
            a, b = build(n, entries), build(n, shuffled)
            assert a == b and hash(a) == hash(b)
        expected = {key: tuple((k, x) for k, x in sorted(terms.items()) if x)
                    for key, terms in entries.items() if any(terms.values())}
        for table in _tables(n, shuffled):
            assert list(table) == sorted(table)
            assert table == expected


def test_zero_coefficients_are_dropped():
    entries = {(0, 1): {0: 0, 1: "0", 2: Fraction(0)}, (1, 1): {2: "3/4", 0: "0/5"},
               (2, 2): {}}
    for table in _tables(3, entries):
        assert table == {(1, 1): ((2, Fraction(3, 4)),)}
    assert StructureTensor(3, entries) == StructureTensor(3, {(1, 1): {2: Fraction(3, 4)}})
    assert BilinearTensor.from_values(3, {(0, 0): {1: "0"}}) == BilinearTensor.zero(3)
    assert BilinearTensor([[["0"]]]).is_zero()


def test_dense_views_and_vectorizations_round_trip():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        entries = _random_entries(rng, n)
        t = StructureTensor(n, entries)
        b = BilinearTensor.from_values(n, entries)
        for view in (t.c, b.b):
            assert isinstance(view, tuple) and len(view) == n
            for k, plane in enumerate(view):
                assert isinstance(plane, tuple) and len(plane) == n
                for i, row in enumerate(plane):
                    assert isinstance(row, tuple) and len(row) == n
                    for j, x in enumerate(row):
                        # Fraction(0), never int 0: renderings that tell the
                        # two apart must see the tensor as before
                        assert type(x) is Fraction
                        assert x == entries.get((i, j), {}).get(k, 0)
        assert BilinearTensor(b.b) == b
        assert vec_to_bilinear(bilinear_to_vec(b), n) == b
        assert row_to_bilinear(bilinear_to_row(b), n) == b


def test_a_huge_sparse_tensor_allocates_nothing_dense():
    # Under a 1 GB address-space limit, any dim^2 or dim^3 structure for
    # dim 10^6 fails with MemoryError (or never finishes).
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from leibnizalg import opposite, parse_algebra, parse_bilinear, serialize_algebra, serialize_bilinear
        text = "dim 1000000\\nbracket 1 999999 = 1000000:-2/3\\n"
        t = parse_algebra(text)
        assert serialize_algebra(t) == text
        assert parse_algebra(serialize_algebra(t)) == t
        assert opposite(t) != t and opposite(opposite(t)) == t
        assert hash(opposite(opposite(t))) == hash(t)
        values = text.replace("bracket", "value")
        assert serialize_bilinear(parse_bilinear(values)) == values
        print("ok")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(leibnizalg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_bilinear_tensor_evaluate():
    f = BilinearTensor.from_values(3, {(2, 2): {2: 1}})
    assert f.value_basis(2, 2) == (0, 0, 1)
    assert not f.is_zero()
    assert BilinearTensor.zero(3).is_zero()
