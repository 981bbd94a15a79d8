"""Structure tensors: identity checking, invariant subspaces, constructions."""

from fractions import Fraction

import pytest

from leibnizalg.algebra import (
    BilinearTensor,
    LeibnizIdentityError,
    ModuleAction,
    StructureTensor,
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


def test_from_brackets_rejects_bad_indices():
    with pytest.raises(ValueError):
        StructureTensor.from_brackets(2, {(0, 2): {0: 1}})
    with pytest.raises(ValueError):
        StructureTensor.from_brackets(2, {(0, 1): {5: 1}})
    with pytest.raises(ValueError):
        StructureTensor([[[0]]], labels=("a", "b"))


def test_left_leibniz_identity_detects_violations():
    # [e1,e1] = e2 with [e1,e2] = 0 breaks [x,[x,x]] = [x,[x,x]] + [[x,x],x]
    bad = StructureTensor.from_brackets(2, {(0, 0): {1: 1}, (1, 0): {1: 1}})
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


def test_bilinear_tensor_evaluate():
    f = BilinearTensor.from_values(3, {(2, 2): {2: 1}})
    assert f.value_basis(2, 2) == (0, 0, 1)
    assert not f.is_zero()
    assert BilinearTensor.zero(3).is_zero()
