"""Structural invariants checked across the whole property battery.

Each test sweeps every algebra in the battery (catalog entries plus seeded
random hemisemidirect products) so a failure names the offending algebra.
"""

import pytest

import oracle
from leibnizalg import verification
from leibnizalg.algebra import BilinearTensor, vec_to_bilinear, vec_to_map
from leibnizalg.biderivations import (
    biderivation_space,
    is_left_biderivation,
    is_right_biderivation,
)
from leibnizalg.derivations import derivation_space, is_derivation
from leibnizalg.linalg import Matrix

ALGEBRAS = verification.property_algebras()


def test_battery_composition():
    names = [name for name, _ in ALGEBRAS]
    assert len(ALGEBRAS) == 31
    assert len(set(names)) == len(names)
    assert sum(1 for n in names if n.startswith("random-")) == 25


def test_battery_is_deterministic():
    again = verification.property_algebras()
    assert [name for name, _ in again] == [name for name, _ in ALGEBRAS]
    assert all(s.c == t.c for (_, s), (_, t) in zip(again, ALGEBRAS))


def test_every_battery_algebra_validates():
    for name, t in ALGEBRAS:
        assert t.is_left_leibniz, name


@pytest.mark.parametrize(
    "predicate",
    [p for _, p in verification.PROPERTY_PREDICATES],
    ids=[name for name, _ in verification.PROPERTY_PREDICATES])
def test_invariant_holds_on_every_battery_algebra(predicate):
    failed = [name for name, t in ALGEBRAS if not predicate(t)]
    assert not failed


def test_bracket_table_matches_the_structure_constants():
    for name, t in ALGEBRAS:
        n = t.dim
        for i in range(n):
            for j in range(n):
                terms = t.brackets.get((i, j), ())
                assert [k for k, _ in terms] == sorted({k for k, _ in terms}), name
                assert all(co != 0 for _, co in terms), name
                table = dict(terms)
                for k in range(n):
                    assert table.get(k, 0) == t.c[k][i][j], (name, k, i, j)


def _elementary(n, r, s):
    return Matrix([[1 if (a, b) == (r, s) else 0 for b in range(n)]
                   for a in range(n)], cols=n)


def _oracle_slices_are_derivations(t, b, side):
    n = t.dim
    for x in range(n):
        if side == "left":
            d = [[b.b[r][x][s] for s in range(n)] for r in range(n)]
        else:
            d = [[b.b[r][s][x] for s in range(n)] for r in range(n)]
        if not oracle.is_derivation(t, d):
            return False
    return True


def test_is_derivation_agrees_with_the_dense_oracle():
    # basis derivations must pass; elementary maps exercise the rejecting
    # path, and on a nonzero bracket at least one of them breaks the identity
    # (otherwise the identity map would be a derivation)
    for name, t in ALGEBRAS:
        n = t.dim
        for v in derivation_space(t).basis_vectors():
            m = vec_to_map(v, n)
            assert oracle.is_derivation(t, m.entries), name
            assert is_derivation(t, m), name
        verdicts = []
        for r in range(n):
            for s in range(n):
                m = _elementary(n, r, s)
                expected = oracle.is_derivation(t, m.entries)
                assert is_derivation(t, m) == expected, (name, r, s)
                verdicts.append(expected)
        assert (not all(verdicts)) == bool(t.brackets), name


def test_slice_predicates_reject_a_perturbed_biderivation():
    for name, t in ALGEBRAS:
        n = t.dim
        bad = [(r, s) for r in range(n) for s in range(n)
               if not oracle.is_derivation(t, _elementary(n, r, s).entries)]
        if not bad:
            continue
        r, s = bad[0]
        space = biderivation_space(t)
        base = (vec_to_bilinear(space.basis_vectors()[0], n) if space.dim
                else BilinearTensor.zero(n))
        for side, predicate in (("left", is_left_biderivation),
                                ("right", is_right_biderivation)):
            assert _oracle_slices_are_derivations(t, base, side), name
            assert predicate(t, base), (name, side)
            # add the non-derivation E_rs to the slice at e_0 of this side
            b = [[list(row) for row in plane] for plane in base.b]
            if side == "left":
                b[r][0][s] += 1
            else:
                b[r][s][0] += 1
            perturbed = BilinearTensor(b)
            assert not _oracle_slices_are_derivations(t, perturbed, side), name
            assert not predicate(t, perturbed), (name, side)
