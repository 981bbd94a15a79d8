"""Biderivation spaces, factorization through the bracket, certificates."""

import random
from fractions import Fraction
from itertools import chain

import pytest

import oracle
from leibnizalg import catalog, verification
from leibnizalg.algebra import (
    BilinearTensor,
    bilinear_to_row,
    bilinear_to_vec,
    leibniz_kernel,
    map_to_vec,
    tensor_index,
    vec_to_bilinear,
)
from leibnizalg.biderivations import (
    _first_slot_minus_rows,
    _left_rows,
    _right_rows,
    _slice_space,
    bider_from_map,
    biderivation_space,
    commuting_map_space,
    converse_def2_sym_skew,
    factor_left_modulo,
    factor_right_modulo,
    is_biderivation,
    is_left_biderivation,
    is_right_biderivation,
    is_skew_symmetric,
    is_symmetric,
    left_biderivation_space,
    loday_biderivation_space,
    map_bracket_tensor,
    right_biderivation_space,
    skew_commuting_map_space,
    skew_part,
    stacked_biderivation_space,
    symmetric_part,
    symmetric_skew_spans,
    verify_prop_commuting,
    verify_sigma_theta,
)
from leibnizalg.linalg import Matrix, Subspace, _nullspace_of, unit_vector


def test_biderivation_dims_frozen():
    assert biderivation_space(catalog.sl2()).dim == 1
    assert biderivation_space(catalog.heisenberg()).dim == 12
    assert biderivation_space(catalog.abelian(2)).dim == 8
    assert biderivation_space(catalog.example_affine_one()).dim == 5
    assert biderivation_space(catalog.example_affine_two()).dim == 12
    assert biderivation_space(catalog.example_solvable(5)).dim == 4


def test_biderivation_dims_match_dense_oracle():
    for builder in (catalog.sl2, catalog.heisenberg,
                    lambda: catalog.abelian(2),
                    catalog.example_affine_one, catalog.example_affine_two):
        t = builder()
        assert biderivation_space(t).dim == oracle.biderivation_dim(t)


def test_commuting_dims_match_dense_oracle():
    for builder in (catalog.sl2, catalog.heisenberg,
                    catalog.example_affine_one, catalog.example_affine_two):
        t = builder()
        assert commuting_map_space(t).dim == oracle.commuting_dim(t)
        assert skew_commuting_map_space(t).dim == oracle.skew_commuting_dim(t)


def test_bracket_tensor_slice_memberships():
    # the bracket is always a left biderivation (left multiplications are
    # derivations); it is a right one exactly when right multiplications are
    # derivations too, which fails on strictly non-Lie algebras
    for t in (catalog.sl2(), catalog.heisenberg()):
        brk = BilinearTensor(t.c)
        assert is_left_biderivation(t, brk)
        assert is_right_biderivation(t, brk)
        assert is_biderivation(t, brk)
        assert biderivation_space(t).contains(bilinear_to_vec(brk))
    for t in (catalog.example_affine_two(), catalog.example_solvable(5)):
        brk = BilinearTensor(t.c)
        assert is_left_biderivation(t, brk)
        assert not is_right_biderivation(t, brk)
        assert not is_biderivation(t, brk)


def test_sl2_biderivations_are_bracket_multiples():
    t = catalog.sl2()
    space = biderivation_space(t)
    assert space.dim == 1
    gen = vec_to_bilinear(space.basis_vectors()[0], 3)
    brk = BilinearTensor(t.c)
    # proportionality: the generator is a rational multiple of the bracket
    ratio = None
    for k in range(3):
        for i in range(3):
            for j in range(3):
                if brk.b[k][i][j]:
                    r = gen.b[k][i][j] / brk.b[k][i][j]
                    assert ratio is None or r == ratio
                    ratio = r
                else:
                    assert gen.b[k][i][j] == 0
    assert ratio not in (None, 0)


def test_symmetric_and_skew_parts():
    f = BilinearTensor.from_values(2, {(0, 1): {0: 1}})
    plus = symmetric_part(f)
    minus = skew_part(f)
    assert plus.b[0][0][1] == 1 and plus.b[0][1][0] == 1
    assert minus.b[0][0][1] == 1 and minus.b[0][1][0] == -1
    assert is_symmetric(plus) and is_skew_symmetric(minus)
    # halves recombine to the original
    n = 2
    rec = [[[Fraction(plus.b[k][i][j] + minus.b[k][i][j], 2) for j in range(n)]
            for i in range(n)] for k in range(n)]
    assert BilinearTensor(rec) == f


def test_symmetric_and_skew_parts_match_the_plain_formulas():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        b = BilinearTensor([[[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              if rng.random() < 0.2 else 0
                              for _ in range(n)] for _ in range(n)] for _ in range(n)])
        plus = [[[b.b[k][i][j] + b.b[k][j][i] for j in range(n)]
                 for i in range(n)] for k in range(n)]
        minus = [[[b.b[k][i][j] - b.b[k][j][i] for j in range(n)]
                  for i in range(n)] for k in range(n)]
        assert symmetric_part(b) == BilinearTensor(plus)
        assert skew_part(b) == BilinearTensor(minus)


def test_symmetric_skew_spans_match_the_plain_formulas():
    algebras = [catalog.sl2(), catalog.abelian(3), catalog.example_affine_two(),
                catalog.example_solvable(5)]
    algebras += [catalog.random_hemisemidirect(seed, lie, 2)
                 for seed, lie in enumerate(("heisenberg", "sl2", "r2"))]
    for t in algebras:
        n = t.dim
        space = biderivation_space(t)
        dense = [vec_to_bilinear(v, n).b for v in space.basis_vectors()]
        spans = tuple(Subspace.from_vectors(
            [[b[k][i][j] + sign * b[k][j][i]
              for k in range(n) for i in range(n) for j in range(n)] for b in dense],
            n ** 3) for sign in (1, -1))
        assert symmetric_skew_spans(space, n) == spans



def test_kernel_line_tensor_certificate_pins_the_contradiction():
    t = catalog.example_affine_one()
    f = BilinearTensor.from_values(3, {(2, 2): {2: 1}})
    assert is_symmetric(f)
    assert is_biderivation(t, f)
    res = factor_left_modulo(t, f, Subspace.zero(3))
    assert res.side == "left"
    assert not res.feasible
    assert res.phi is None
    cert = res.certificate
    assert cert is not None
    assert cert.equation == (2, 2, 2)
    assert cert.defect == 1
    assert [(s.unknown, s.value) for s in cert.steps] == [
        ((1, 2), Fraction(0)), ((0, 2), Fraction(0))]
    assert [s.equation for s in cert.steps] == [(2, 0, 1), (2, 1, 1)]
    assert cert.used_equations == ((2, 1, 1),)


def test_kernel_plane_tensor_infeasible_on_both_sides():
    t = catalog.example_affine_two()
    g = BilinearTensor.from_values(4, {(2, 3): {2: 1}, (3, 2): {2: -1}})
    assert is_skew_symmetric(g)
    assert is_biderivation(t, g)
    left = factor_left_modulo(t, g, Subspace.zero(4))
    right = factor_right_modulo(t, g, Subspace.zero(4))
    assert not left.feasible and not right.feasible
    assert left.certificate.equation == (2, 3, 2)
    assert [s.unknown for s in left.certificate.steps] == [(1, 2), (0, 2)]
    assert right.certificate.equation == (2, 3, 2)
    assert [s.unknown for s in right.certificate.steps] == [(1, 3), (0, 3)]


def test_factor_modulo_kernel_succeeds_where_exact_fails():
    t = catalog.example_affine_one()
    f = BilinearTensor.from_values(3, {(2, 2): {2: 1}})
    leib = leibniz_kernel(t)
    res = factor_left_modulo(t, f, leib)
    assert res.feasible
    assert res.checks["residual_in_subspace"]
    assert res.checks["residual_is_left_biderivation"]
    # reproduction modulo the kernel: B - [phi(.),.] lands in the kernel
    n = 3
    approx = bider_from_map(t, res.phi)
    for i in range(n):
        for j in range(n):
            diff = [f.b[k][i][j] - approx.b[k][i][j] for k in range(n)]
            assert leib.contains(diff)


def test_factor_left_reproduces_exactly_when_feasible():
    t = catalog.sl2()
    brk = BilinearTensor(t.c)
    left = factor_left_modulo(t, brk, Subspace.zero(3))
    right = factor_right_modulo(t, brk, Subspace.zero(3))
    assert left.feasible and right.feasible
    assert left.phi == Matrix.identity(3)
    assert bider_from_map(t, left.phi) == brk
    assert map_bracket_tensor(t, right.phi, "right") == brk
    assert right.phi == Matrix.identity(3).scale(-1)
    assert left.residual.is_zero() and right.residual.is_zero()


def test_solvable_biderivations_factor_modulo_kernel_both_sides():
    t = catalog.example_solvable(5)
    leib = leibniz_kernel(t)
    space = biderivation_space(t)
    assert space.dim == 4
    for vec in space.basis_vectors():
        b = vec_to_bilinear(vec, 7)
        left = factor_left_modulo(t, b, leib)
        right = factor_right_modulo(t, b, leib)
        assert left.feasible and right.feasible
        assert left.checks["residual_in_subspace"]
        assert left.checks["residual_is_left_biderivation"]
        assert right.checks["residual_in_subspace"]
        assert right.checks["residual_is_right_biderivation"]


def test_loday_variant_agrees_on_lie_but_not_in_general():
    for t in (catalog.sl2(), catalog.heisenberg(), catalog.abelian(2)):
        assert loday_biderivation_space(t) == biderivation_space(t)
    # on the kernel-line algebra the two notions genuinely differ
    t = catalog.example_affine_one()
    assert loday_biderivation_space(t).dim == 6
    assert biderivation_space(t).dim == 5


def test_triple_agreement_and_cross_check():
    t = catalog.example_affine_two()
    from leibnizalg.linalg import subspace_intersection
    space = biderivation_space(t)
    inter = subspace_intersection(left_biderivation_space(t),
                                  right_biderivation_space(t))
    assert space == inter
    assert stacked_biderivation_space(t) == inter


def _battery_and_panel():
    """The battery algebras and the three pinned products of perfbench's
    wide-nullspace workload (catalog seeds 0-2)."""
    panel = (("heisenberg", 4), ("sl2", 4), ("r2", 5))
    return ([t for _, t in verification.property_algebras()]
            + [catalog.random_hemisemidirect(seed, lie, mdim)
               for seed, (lie, mdim) in enumerate(panel)])


def test_one_sided_spaces_match_the_n3_slice_systems():
    # the spaces placed from Der, and their intersection, against the slice
    # systems over all n^3 unknowns, which share no elimination with
    # derivation_space
    for t in _battery_and_panel():
        n = t.dim
        assert left_biderivation_space(t) == _nullspace_of(_left_rows(t), n ** 3)
        assert right_biderivation_space(t) == _nullspace_of(_right_rows(t), n ** 3)
        assert biderivation_space(t) == _nullspace_of(
            chain(_left_rows(t), _right_rows(t)), n ** 3)


def _random_map_space(rng, n):
    vectors = []
    for _ in range(rng.randint(1, n * n)):
        vectors.append([rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 3)))
                        for _ in range(n * n)])
    return Subspace.from_vectors(vectors, n * n)


def test_placed_slices_are_canonical():
    rng = random.Random(7)
    cases = [(n, space) for n in (2, 3) for space in (Subspace.zero(n * n),
                                                       Subspace.full(n * n))]
    cases += [(n, _random_map_space(rng, n))
              for n in (rng.randint(1, 4) for _ in range(16))]
    for n, maps in cases:
        for side in ("left", "right"):
            placed = _slice_space(maps, n, side)
            assert placed.dim == n * maps.dim
            rows = list(placed.rows)
            rng.shuffle(rows)
            canonical = Subspace._from_sparse(rows, n ** 3)
            # key order too: hashing reads the rows' items in order
            assert ([list(r.items()) for r in placed.rows]
                    == [list(r.items()) for r in canonical.rows])
            assert hash(placed) == hash(canonical)
            # every slice of every basis tensor lies in the map space
            for v in placed.basis_vectors():
                b = vec_to_bilinear(v, n)
                for a in range(n):
                    slice_ = [b.b[r][a][s] if side == "left" else b.b[r][s][a]
                              for r in range(n) for s in range(n)]
                    assert maps.contains(slice_)


def test_loday_dims_match_dense_oracle():
    for _, t in verification.property_algebras():
        if t.dim <= 4:
            assert loday_biderivation_space(t).dim == oracle.loday_dim(t)


def _n3_loday_space(t):
    """The Loday system over all n^3 unknowns: the first-slot-minus rows of
    every right slice B(-, e_l), stacked with the left-slice rows."""
    n = t.dim
    minus = chain.from_iterable(
        _first_slot_minus_rows(t, lambda r, s, l=l: tensor_index(n, r, s, l))
        for l in range(n))
    return _nullspace_of(chain(minus, _left_rows(t)), n ** 3)


def test_loday_space_matches_the_n3_system():
    for t in _battery_and_panel():
        if t.dim > 4:
            assert loday_biderivation_space(t) == _n3_loday_space(t)
    t = catalog.example_solvable(8)
    assert loday_biderivation_space(t) == _n3_loday_space(t)


def test_triple_agreement_predicate_detects_a_wrong_stacked_space(monkeypatch):
    t = catalog.example_affine_two()
    assert verification.triple_agreement_holds(t)
    with monkeypatch.context() as patch:
        patch.setattr(verification, "stacked_biderivation_space",
                      lambda t: Subspace.zero(t.dim ** 3))
        assert not verification.triple_agreement_holds(t)
    # a biderivation space that skips the intersection with the right space
    monkeypatch.setattr(verification, "biderivation_space", left_biderivation_space)
    assert not verification.triple_agreement_holds(t)


def test_sym_skew_closure_predicate_rejects_an_open_span(monkeypatch):
    t = catalog.abelian(2)
    assert verification.sym_skew_closure_holds(t)
    # the span of B(e_1, e_2) = e_1 alone misses both of its parts
    b = BilinearTensor.from_values(2, {(0, 1): {0: 1}})
    with monkeypatch.context() as patch:
        patch.setattr(verification, "biderivation_space",
                      lambda t: Subspace._from_sparse([bilinear_to_row(b)], 8))
        assert not verification.sym_skew_closure_holds(t)
    # every bilinear map is a biderivation here, so membership holds, but two
    # symmetric parts do not sum back to twice a tensor that is not symmetric
    monkeypatch.setattr(verification, "skew_part", symmetric_part)
    assert not verification.sym_skew_closure_holds(t)


def test_commuting_map_images():
    rep = verify_prop_commuting(catalog.sl2())
    assert rep.ok
    assert rep.commuting_dim == 1
    assert rep.skew_commuting_dim == 0
    assert rep.violations == ()
    rep2 = verify_prop_commuting(catalog.example_solvable(5))
    assert rep2.ok
    assert rep2.commuting_dim == 1
    assert rep2.skew_commuting_dim == 24


def test_sigma_theta_on_the_affine_examples():
    t1 = catalog.example_affine_one()
    f = BilinearTensor.from_values(3, {(2, 2): {2: 1}})
    rep = verify_sigma_theta(t1, f)
    assert rep.ok
    assert all(entry.definition == "def1" for entry in rep.entries)
    assert any(entry.part == "symmetric" for entry in rep.entries)

    t2 = catalog.example_affine_two()
    g = BilinearTensor.from_values(4, {(2, 3): {2: 1}, (3, 2): {2: -1}})
    rep2 = verify_sigma_theta(t2, g)
    assert rep2.ok
    assert any(entry.part == "skew" for entry in rep2.entries)


def test_sigma_theta_rejects_garbage():
    t = catalog.example_affine_one()
    not_a_bider = BilinearTensor.from_values(3, {(0, 1): {0: 1}})
    assert not is_biderivation(t, not_a_bider)
    with pytest.raises(ValueError):
        verify_sigma_theta(t, not_a_bider)
    # heisenberg is complete in neither sense, so there is nothing to verify
    with pytest.raises(ValueError):
        verify_sigma_theta(catalog.heisenberg(), BilinearTensor.zero(3))


def test_converse_reconstruction_on_sl2():
    t = catalog.sl2()
    rep = converse_def2_sym_skew(t)
    assert rep.ok
    assert len(rep.entries) == 1
    entry = rep.entries[0]
    assert entry.part == "skew"
    assert entry.feasible and entry.reproduces and entry.in_map_space
    # the generator is a bracket multiple, so the recovered map is scalar
    m = entry.mapping
    assert m.entry(0, 0) == m.entry(1, 1) == m.entry(2, 2) != 0


def test_converse_requires_def2_completeness():
    with pytest.raises(ValueError):
        converse_def2_sym_skew(catalog.heisenberg())


def test_converse_on_the_solvable_example():
    # a non-Lie algebra with all derivations inner: the reconstruction still
    # recovers every biderivation from a commuting or skew-commuting map
    t = catalog.example_solvable(5)
    rep = converse_def2_sym_skew(t)
    assert rep.ok
    assert len(rep.entries) == 4
    parts = sorted(entry.part for entry in rep.entries)
    assert parts == ["skew", "symmetric", "symmetric", "symmetric"]
