"""Reference verification suite: every pinned fact as a named PASS/FAIL item.

This module is the single source of truth for the package's check battery.
The ``verify-paper`` CLI command prints one line per item and exits nonzero
if any item fails; the acceptance tests call the same functions grouped the
same way. Items re-derive each expected value from scratch — fixture files
only store what the answers should be, never how they were computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .algebra import (
    BilinearTensor,
    StructureTensor,
    bilinear_to_row,
    bilinear_to_vec,
    bracket,
    is_ideal,
    is_lie,
    left_center,
    leibniz_kernel,
    map_to_vec,
    center,
    quotient,
    row_to_bilinear,
    vec_to_bilinear,
    vec_to_map,
)
from .biderivations import (
    bider_from_map,
    biderivation_space,
    commuting_map_space,
    converse_def2_sym_skew,
    factor_left_modulo,
    factor_right_modulo,
    is_biderivation,
    is_skew_symmetric,
    is_symmetric,
    loday_biderivation_space,
    map_bracket_tensor,
    skew_commuting_map_space,
    skew_part,
    stacked_biderivation_space,
    symmetric_part,
    verify_prop_commuting,
)
from .derivations import (
    derivation_space,
    inner_derivation_space,
    is_complete_def1,
    is_complete_def2,
)
from .fileformat import parse_algebra, serialize_algebra
from .linalg import Matrix, Subspace, _acc, unit_vector


@dataclass(frozen=True)
class CheckItem:
    """One named verification line: a fact that either held or did not."""
    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{mark}  {self.name}{tail}"


def _item(name: str, passed: bool, detail: str = "") -> CheckItem:
    return CheckItem(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# fixture facts

def _computed_fact(t: StructureTensor, key: str):
    if key == "dim":
        return t.dim
    if key == "leibniz_valid":
        return t.is_left_leibniz
    if key == "is_lie":
        return is_lie(t)
    if key == "leibniz_kernel_dim":
        return leibniz_kernel(t).dim
    if key == "left_center_dim":
        return left_center(t).dim
    if key == "center_dim":
        return center(t).dim
    if key == "left_center_equals_leibniz_kernel":
        return left_center(t) == leibniz_kernel(t)
    if key == "derivation_dim":
        return derivation_space(t).dim
    if key == "inner_dim":
        return inner_derivation_space(t).dim
    if key == "biderivation_dim":
        return biderivation_space(t).dim
    if key == "loday_dim":
        return loday_biderivation_space(t).dim
    if key == "commuting_dim":
        return commuting_map_space(t).dim
    if key == "skew_commuting_dim":
        return skew_commuting_map_space(t).dim
    if key == "complete_def1":
        return is_complete_def1(t).verdict
    if key == "complete_def2":
        return is_complete_def2(t).verdict
    raise KeyError(f"unknown fixture fact {key!r}")


def fixture_checks() -> list[CheckItem]:
    """Re-derive every pinned fixture fact and compare exactly."""
    items = []
    for fx in catalog.load_fixtures():
        t = fx.build()
        for key, entry in sorted(fx.expected.items()):
            expected = entry["value"]
            computed = _computed_fact(t, key)
            items.append(_item(
                f"fixture {fx.name}: {key}",
                computed == expected,
                f"expected {expected} [{entry['source']}], computed {computed}"))
    return items


# ---------------------------------------------------------------------------
# the pinned worked examples

def kernel_line_certificate_checks() -> list[CheckItem]:
    """3-dim algebra with a one-line kernel: the symmetric tensor supported on
    the kernel is a biderivation but admits no bracket factorization, and the
    infeasibility certificate pins both candidate coefficients to zero before
    hitting the contradiction."""
    t = catalog.example_affine_one()
    items = []
    v = 2  # basis order (x, y, v)
    items.append(_item(
        "kernel-line: Leibniz kernel is exactly the module line",
        leibniz_kernel(t) == Subspace.from_vectors([unit_vector(3, v)], 3)))
    f = BilinearTensor.from_values(3, {(v, v): {v: 1}})
    items.append(_item("kernel-line: tensor is symmetric", is_symmetric(f)))
    items.append(_item("kernel-line: tensor is a biderivation", is_biderivation(t, f)))
    res = factor_left_modulo(t, f, Subspace.zero(3))
    items.append(_item("kernel-line: no exact left factorization", not res.feasible))
    cert = res.certificate
    if cert is None:
        items.append(_item("kernel-line: certificate present", False))
        return items
    steps = [(s.unknown, s.value) for s in cert.steps]
    items.append(_item(
        "kernel-line: elimination pins the two candidate coefficients to zero",
        steps == [((1, v), Fraction(0)), ((0, v), Fraction(0))],
        "steps " + ", ".join(f"{u} = {val}" for u, val in steps)))
    items.append(_item(
        "kernel-line: contradiction sits at the kernel square",
        cert.equation == (v, v, v) and cert.defect != 0,
        f"equation {cert.equation}, defect {cert.defect}"))
    return items


def kernel_plane_certificate_checks() -> list[CheckItem]:
    """4-dim algebra with a kernel plane: the skew tensor rotating the plane
    is a biderivation with no exact factorization, and the maps vanishing on
    the Lie part while preserving the plane are all derivations."""
    t = catalog.example_affine_two()
    items = []
    v, w = 2, 3  # basis order (x, y, v, w)
    g = BilinearTensor.from_values(4, {(v, w): {v: 1}, (w, v): {v: -1}})
    items.append(_item("kernel-plane: tensor is skew-symmetric", is_skew_symmetric(g)))
    items.append(_item("kernel-plane: tensor is a biderivation", is_biderivation(t, g)))
    res = factor_left_modulo(t, g, Subspace.zero(4))
    items.append(_item(
        "kernel-plane: no exact left factorization",
        not res.feasible and res.certificate is not None))
    der = derivation_space(t)
    family = []
    for r in (v, w):
        for s in (v, w):
            m = Matrix([[1 if (a, b) == (r, s) else 0 for b in range(4)]
                        for a in range(4)], cols=4)
            family.append(map_to_vec(m))
    items.append(_item(
        "kernel-plane: plane-preserving maps killing the Lie part are derivations",
        der.contains_subspace(Subspace.from_vectors(family, 16)),
        f"4-dim family inside a {der.dim}-dim derivation space"))
    return items


def solvable_completeness_checks() -> list[CheckItem]:
    """Seven-dimensional solvable algebra: completeness verdicts and the
    left-center/kernel coincidence."""
    t = catalog.example_solvable(5)
    items = []
    items.append(_item(
        "solvable: complete under the kernel-quotient definition",
        is_complete_def1(t).verdict))
    items.append(_item(
        "solvable: NOT complete under the inner-derivation definition",
        not is_complete_def2(t).verdict,
        f"computed Der dim {derivation_space(t).dim}, "
        f"inner dim {inner_derivation_space(t).dim}, "
        f"center dim {center(t).dim}"))
    items.append(_item(
        "solvable: left center equals the Leibniz kernel",
        left_center(t) == leibniz_kernel(t)))
    return items


def solvable_factorization_checks() -> list[CheckItem]:
    """Every biderivation of the solvable algebra factors through the bracket
    modulo the kernel, on both sides, with residuals inside the kernel."""
    t = catalog.example_solvable(5)
    leib = leibniz_kernel(t)
    space = biderivation_space(t)
    items = []
    for idx, vec in enumerate(space.basis_vectors()):
        b = vec_to_bilinear(vec, t.dim)
        left = factor_left_modulo(t, b, leib)
        right = factor_right_modulo(t, b, leib)
        ok = (left.feasible and right.feasible
              and left.checks.get("residual_in_subspace", False)
              and right.checks.get("residual_in_subspace", False)
              and left.checks.get("residual_is_left_biderivation", False)
              and right.checks.get("residual_is_right_biderivation", False))
        items.append(_item(
            f"solvable: biderivation basis #{idx + 1} factors modulo the kernel",
            ok,
            "left and right, residuals verified in the kernel"))
    items.append(_item(
        "solvable: biderivation space has the frozen dimension",
        space.dim == 4, f"dim {space.dim}"))
    return items


def lie_control_checks() -> list[CheckItem]:
    """sl2 control: complete in both senses, all derivations inner, the
    biderivation space is the bracket line, and the bracket factors exactly
    through maps on either side."""
    t = catalog.sl2()
    items = []
    items.append(_item(
        "sl2: complete under both definitions",
        is_complete_def1(t).verdict and is_complete_def2(t).verdict))
    der = derivation_space(t)
    inner = inner_derivation_space(t)
    items.append(_item(
        "sl2: derivations are exactly the inner ones, dimension 3",
        der.dim == 3 and inner.dim == 3 and der == inner))
    space = biderivation_space(t)
    brk = BilinearTensor.from_values(t.dim, t.brackets)
    items.append(_item(
        "sl2: biderivations are the multiples of the bracket",
        space.dim == 1 and space.contains(bilinear_to_vec(brk))))
    left = factor_left_modulo(t, brk, Subspace.zero(3))
    right = factor_right_modulo(t, brk, Subspace.zero(3))
    ok = (left.feasible and right.feasible
          and left.phi is not None and right.phi is not None
          and bider_from_map(t, left.phi) == brk
          and map_bracket_tensor(t, right.phi, "right") == brk)
    items.append(_item("sl2: bracket factors exactly on both sides", ok))
    return items


# ---------------------------------------------------------------------------
# property battery

def property_algebras() -> list[tuple[str, StructureTensor]]:
    """Catalog entries plus a deterministic batch of 25 random products."""
    out: list[tuple[str, StructureTensor]] = [
        ("abelian-2", catalog.abelian(2)),
        ("sl2", catalog.sl2()),
        ("heisenberg", catalog.heisenberg()),
        ("example-affine-one", catalog.example_affine_one()),
        ("example-affine-two", catalog.example_affine_two()),
        ("example-solvable-5", catalog.example_solvable(5)),
    ]
    combos = [(lie, mdim) for lie in catalog.LIE_CHOICES for mdim in (1, 2)]
    seed = 0
    while len(out) - 6 < 25:
        lie, mdim = combos[seed % len(combos)]
        out.append((
            f"random-{lie}-{mdim}-s{seed}",
            catalog.random_hemisemidirect(seed, lie, mdim)))
        seed += 1
    return out


def triple_agreement_holds(t: StructureTensor) -> bool:
    """The biderivation space, the intersection of the one-sided spaces placed
    from Der, equals the nullspace of the stacked left and right slice
    systems over n^3 unknowns. This is where verify-paper runs the
    independent stacked route; biderivation_space itself never does."""
    return stacked_biderivation_space(t) == biderivation_space(t)


def sym_skew_closure_holds(t: StructureTensor) -> bool:
    """Biderivations are closed under both transposition parts, which sum back
    to twice the tensor; checked on the sparse rows of the canonical basis."""
    space = biderivation_space(t)
    for row in space.rows:
        b = row_to_bilinear(row, t.dim)
        plus = bilinear_to_row(symmetric_part(b))
        minus = bilinear_to_row(skew_part(b))
        if not (space.contains_row(plus) and space.contains_row(minus)):
            return False
        for k, x in minus.items():
            _acc(plus, k, x)
        if plus != {k: 2 * x for k, x in row.items()}:
            return False
    return True


def commuting_images_ok(t: StructureTensor) -> bool:
    """Commuting maps induce skew-symmetric biderivations and conversely."""
    return verify_prop_commuting(t).ok


def kernel_ideal_facts_hold(t: StructureTensor) -> bool:
    """The kernel is a left-central ideal contained in the left center."""
    leib = leibniz_kernel(t)
    if not is_ideal(t, leib):
        return False
    n = t.dim
    for vec in leib.basis_vectors():
        for j in range(n):
            if any(bracket(t, vec, unit_vector(n, j))):
                return False
    return left_center(t).contains_subspace(leib)


def quotient_by_kernel_is_lie(t: StructureTensor) -> bool:
    q = quotient(t, leibniz_kernel(t)).tensor
    return q.is_left_leibniz and is_lie(q)


def derivations_preserve_kernel(t: StructureTensor) -> bool:
    leib = leibniz_kernel(t)
    n = t.dim
    for vec in derivation_space(t).basis_vectors():
        m = vec_to_map(vec, n)
        for kv in leib.basis_vectors():
            if not leib.contains(m.apply(kv)):
                return False
    return True


def inner_inside_derivations(t: StructureTensor) -> bool:
    return derivation_space(t).contains_subspace(inner_derivation_space(t))


def inner_dim_complements_left_center(t: StructureTensor) -> bool:
    return inner_derivation_space(t).dim == t.dim - left_center(t).dim


def factorization_nonuniqueness_ok(t: StructureTensor) -> bool:
    """For the bracket tensor's exact left factorization: adding any map into
    the left center preserves the factorization, and the computed solution
    differs from the identity solution by a map into the left center."""
    n = t.dim
    brk = BilinearTensor.from_values(t.dim, t.brackets)
    res = factor_left_modulo(t, brk, Subspace.zero(n))
    if not res.feasible or res.phi is None:
        return False
    zl = left_center(t)
    for zvec in zl.basis_vectors():
        shift = Matrix.from_columns([list(zvec) for _ in range(n)], rows=n)
        shifted = res.phi + shift
        if bider_from_map(t, shifted) != brk:
            return False
    for j in range(n):
        diff = [res.phi.entry(r, j) - (1 if r == j else 0) for r in range(n)]
        if not zl.contains(diff):
            return False
    return True


def loday_matches_on_lie(t: StructureTensor) -> bool:
    """On Lie algebras the Loday-style space coincides with the two-sided one."""
    if not is_lie(t):
        return True
    return loday_biderivation_space(t) == biderivation_space(t)


def def1_forces_kernel_left_center(t: StructureTensor) -> bool:
    """Kernel-quotient completeness forces the left center down onto the kernel."""
    if not is_complete_def1(t).verdict:
        return True
    return left_center(t) == leibniz_kernel(t)


PROPERTY_PREDICATES = [
    ("triple agreement of biderivation systems", triple_agreement_holds),
    ("closure under symmetric/skew parts", sym_skew_closure_holds),
    ("commuting maps give skew biderivations and conversely", commuting_images_ok),
    ("kernel is a left-central ideal", kernel_ideal_facts_hold),
    ("quotient by the kernel is Lie", quotient_by_kernel_is_lie),
    ("derivations preserve the kernel", derivations_preserve_kernel),
    ("inner derivations are derivations", inner_inside_derivations),
    ("inner dimension complements the left center", inner_dim_complements_left_center),
    ("factorizations are unique modulo the left center", factorization_nonuniqueness_ok),
    ("Loday-style space matches on Lie algebras", loday_matches_on_lie),
    ("kernel-quotient completeness pins the left center", def1_forces_kernel_left_center),
]


def property_suite_checks() -> list[CheckItem]:
    algebras = property_algebras()
    items = [_item("property battery: every algebra passes validation",
                   all(t.is_left_leibniz for _, t in algebras),
                   f"{len(algebras)} algebras, dims "
                   f"{min(t.dim for _, t in algebras)}..{max(t.dim for _, t in algebras)}")]
    for name, predicate in PROPERTY_PREDICATES:
        failed = [tag for tag, t in algebras if not predicate(t)]
        items.append(_item(
            f"property battery: {name}",
            not failed,
            f"{len(algebras)} algebras" if not failed else f"failed on {failed[:3]}"))
    return items


def converse_checks() -> list[CheckItem]:
    """On every catalog algebra complete in the inner-derivation sense, the
    symmetric/skew reconstruction lands in the right map space and reproduces
    the tensor."""
    items = []
    for name, builder in (("sl2", catalog.sl2),
                          ("heisenberg", catalog.heisenberg),
                          ("abelian-2", lambda: catalog.abelian(2)),
                          ("example-affine-one", catalog.example_affine_one),
                          ("example-affine-two", catalog.example_affine_two),
                          ("example-solvable-5", lambda: catalog.example_solvable(5))):
        t = builder()
        if not is_complete_def2(t).verdict:
            continue
        rep = converse_def2_sym_skew(t)
        items.append(_item(
            f"reconstruction on {name}: maps recover every biderivation",
            rep.ok,
            f"{len(rep.entries)} basis tensors"))
    return items


def round_trip_checks() -> list[CheckItem]:
    items = []
    for fx in catalog.load_fixtures():
        t = fx.build()
        again = parse_algebra(serialize_algebra(t))
        items.append(_item(
            f"file round trip: {fx.name}",
            again == t))
    return items


# ---------------------------------------------------------------------------
# top level

SECTIONS = [
    ("fixtures", fixture_checks),
    ("kernel-line certificate", kernel_line_certificate_checks),
    ("kernel-plane certificate", kernel_plane_certificate_checks),
    ("solvable completeness", solvable_completeness_checks),
    ("solvable factorization", solvable_factorization_checks),
    ("Lie control", lie_control_checks),
    ("property battery", property_suite_checks),
    ("reconstruction", converse_checks),
    ("file round trip", round_trip_checks),
]


def run_all() -> list[CheckItem]:
    """Every verification item in order, ending with the overall summary item."""
    items: list[CheckItem] = []
    for _name, section in SECTIONS:
        items.extend(section())
    items.append(_item(
        "all verification items pass",
        all(i.passed for i in items),
        f"{sum(1 for i in items if not i.passed)} failing of {len(items)}"))
    return items
