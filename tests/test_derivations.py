"""Derivation spaces, inner derivations, and the two completeness notions."""

from fractions import Fraction

import pytest

import oracle
from leibnizalg import catalog
from leibnizalg.algebra import bracket, leibniz_kernel, left_center, map_to_vec, quotient
from leibnizalg.derivations import (
    derivation_space,
    inner_derivation_space,
    is_complete_def1,
    is_complete_def2,
    is_derivation,
    left_multiplication,
)
from leibnizalg.linalg import Matrix, Subspace, unit_vector


def test_derivation_dims_frozen():
    assert derivation_space(catalog.sl2()).dim == 3
    assert derivation_space(catalog.heisenberg()).dim == 6
    assert derivation_space(catalog.abelian(2)).dim == 4
    assert derivation_space(catalog.example_affine_one()).dim == 3
    assert derivation_space(catalog.example_affine_two()).dim == 6
    assert derivation_space(catalog.example_solvable(5)).dim == 4


def test_derivation_dims_match_dense_oracle():
    for builder in (catalog.sl2, catalog.heisenberg,
                    lambda: catalog.abelian(2),
                    catalog.example_affine_one, catalog.example_affine_two):
        t = builder()
        assert derivation_space(t).dim == oracle.derivation_dim(t)
        assert inner_derivation_space(t).dim == oracle.inner_dim(t)


def test_left_multiplications_are_derivations():
    for t in (catalog.sl2(), catalog.example_affine_two(),
              catalog.example_solvable(5)):
        n = t.dim
        for i in range(n):
            m = left_multiplication(t, unit_vector(n, i))
            assert is_derivation(t, m)
            assert derivation_space(t).contains(map_to_vec(m))


def test_is_derivation_rejects_non_derivations():
    t = catalog.sl2()
    # a random-looking map: h -> e is no derivation of sl2
    m = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]], cols=3)
    assert not is_derivation(t, m)
    assert is_derivation(t, Matrix.zeros(3, 3))
    # scaling the identity is a derivation only on abelian algebras
    assert not is_derivation(t, Matrix.identity(3))
    assert is_derivation(catalog.abelian(3), Matrix.identity(3))


def test_inner_dimension_complements_left_center():
    for t in (catalog.sl2(), catalog.heisenberg(), catalog.abelian(2),
              catalog.example_affine_one(), catalog.example_affine_two(),
              catalog.example_solvable(5)):
        assert inner_derivation_space(t).dim == t.dim - left_center(t).dim


def test_completeness_on_controls():
    rep1 = is_complete_def1(catalog.sl2())
    rep2 = is_complete_def2(catalog.sl2())
    assert rep1.verdict and rep2.verdict

    heis1 = is_complete_def1(catalog.heisenberg())
    heis2 = is_complete_def2(catalog.heisenberg())
    assert not heis1.verdict and not heis2.verdict
    # the quotient center obstruction is reported
    assert heis1.center_obstruction is not None
    assert heis1.center_obstruction.dim == 1
    assert heis2.center_obstruction is not None


def test_completeness_on_affine_examples():
    for builder in (catalog.example_affine_one, catalog.example_affine_two):
        t = builder()
        assert is_complete_def1(t).verdict
        rep2 = is_complete_def2(t)
        # outer derivations exist, so the second notion fails with a witness
        assert not rep2.verdict
        assert rep2.derivation_obstruction is not None
        d = rep2.derivation_obstruction
        assert is_derivation(t, d)
        assert not inner_derivation_space(t).contains(map_to_vec(d))


def test_def1_witnesses_push_derivations_into_the_kernel():
    t = catalog.example_affine_two()
    rep = is_complete_def1(t)
    assert rep.verdict and rep.witnesses is not None
    leib = leibniz_kernel(t)
    n = t.dim
    basis = derivation_space(t).basis_vectors()
    assert len(rep.witnesses) == len(basis)
    for vec, witness in zip(basis, rep.witnesses):
        assert witness is not None
        d = Matrix([[vec[r * n + c] for c in range(n)] for r in range(n)], cols=n)
        lx = left_multiplication(t, witness)
        for j in range(n):
            residual = [a - b for a, b in zip(d.column(j), lx.column(j))]
            assert leib.contains(residual)


def test_solvable_example_is_complete_def1_with_kernel_left_center():
    t = catalog.example_solvable(5)
    assert is_complete_def1(t).verdict
    assert left_center(t) == leibniz_kernel(t)
    # the quotient by the kernel is a centerless four-dimensional Lie algebra
    q = quotient(t, leibniz_kernel(t)).tensor
    assert q.dim == 4
    assert left_center(q).dim == 0


def test_solvable_example_derivations_are_all_inner():
    # computed fact, cross-checked against two independent dense eliminations;
    # the published claim says otherwise and the acceptance suite carries it
    t = catalog.example_solvable(5)
    der = derivation_space(t)
    inner = inner_derivation_space(t)
    assert der.dim == 4
    assert inner.dim == 4
    assert der == inner
    assert is_complete_def2(t).verdict


def test_derivation_space_requires_a_valid_algebra():
    from leibnizalg.algebra import LeibnizIdentityError, opposite
    # the opposite of a strictly non-Lie left algebra is right-handed, and
    # the computation refuses to run on it
    raw = opposite(catalog.example_solvable(5))
    with pytest.raises(LeibnizIdentityError):
        derivation_space(raw)
