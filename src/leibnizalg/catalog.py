"""Named example algebras and a seeded random generator.

The fixed entries are the small classical controls (sl2, Heisenberg,
abelian), two hemisemidirect products over the affine line algebra
aff(1) = <x, y : [x,y] = y> that exercise the boundary of the factorization
results, and a parametric solvable family that is complete in the
kernel-quotient sense but has outer derivations.

Expected facts for these algebras live in fixtures/*.json next to this
module and are re-derived by the verification suite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from .algebra import Matrix, ModuleAction, StructureTensor, hemisemidirect, opposite


def sl2() -> StructureTensor:
    """Split simple three-dimensional Lie algebra.

    Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h, antisymmetric.
    """
    return StructureTensor(3, {
        (0, 1): {1: 2},
        (1, 0): {1: -2},
        (0, 2): {2: -2},
        (2, 0): {2: 2},
        (1, 2): {0: 1},
        (2, 1): {0: -1},
    }, labels=("h", "e", "f"))


def heisenberg() -> StructureTensor:
    """Three-dimensional Heisenberg Lie algebra: [e1,e2] = e3 central."""
    return StructureTensor(3, {
        (0, 1): {2: 1},
        (1, 0): {2: -1},
    }, labels=("e1", "e2", "e3"))


def abelian(n: int) -> StructureTensor:
    """Zero bracket on Q^n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return StructureTensor(n, {})


def _aff1() -> StructureTensor:
    """Affine line algebra: [x,y] = y."""
    return StructureTensor(2, {
        (0, 1): {1: 1},
        (1, 0): {1: -1},
    }, labels=("x", "y"))


def example_affine_one() -> StructureTensor:
    """aff(1) acting on a line: x by the identity, y by zero.

    Basis (x, y, v); nonzero brackets [x,y] = y, [y,x] = -y, [x,v] = v.
    The module line <v> is exactly the Leibniz kernel.
    """
    action = ModuleAction(_aff1(), [Matrix([[1]]), Matrix([[0]])])
    return hemisemidirect(_aff1(), action, labels=("x", "y", "v"))


def example_affine_two() -> StructureTensor:
    """aff(1) acting on a plane: x by the identity, y by zero.

    Basis (x, y, v, w); nonzero brackets [x,y] = y, [y,x] = -y,
    [x,v] = v, [x,w] = w.
    """
    action = ModuleAction(_aff1(), [Matrix.identity(2), Matrix.zeros(2, 2)])
    return hemisemidirect(_aff1(), action, labels=("x", "y", "v", "w"))


def example_solvable(n: int = 5) -> StructureTensor:
    """Solvable family on basis (e_1..e_n, x, y), dimension n + 2, n >= 4.

    The defining table (right-handed convention, then normalized to a left
    algebra with the opposite product):

        [e1,e1] = e3            [e_i,e1] = e_{i+1}   (3 <= i <= n-1)
        [e1,x]  = e1            [x,e1]   = -e1
        [e2,y]  = e2            [y,e2]   = -e2
        [e_i,x] = (i-1) e_i     (3 <= i <= n)

    All other basis brackets are zero. The returned tensor is the opposite
    table, which satisfies the left identity.
    """
    if n < 4:
        raise ValueError("family needs n >= 4")
    dim = n + 2
    x, y = n, n + 1
    table: dict[tuple[int, int], dict[int, int]] = {}
    table[(0, 0)] = {2: 1}
    for i in range(3, n):            # [e_i, e1] = e_{i+1}
        table[(i - 1, 0)] = {i: 1}
    table[(0, x)] = {0: 1}
    table[(x, 0)] = {0: -1}
    table[(1, y)] = {1: 1}
    table[(y, 1)] = {1: -1}
    for i in range(3, n + 1):        # [e_i, x] = (i-1) e_i
        row = table.setdefault((i - 1, x), {})
        row[i - 1] = i - 1
    labels = tuple(f"e{i}" for i in range(1, n + 1)) + ("x", "y")
    right = StructureTensor(dim, table, labels=labels)
    return opposite(right)


# ---------------------------------------------------------------------------
# random hemisemidirect products

LIE_CHOICES = ("abelian1", "abelian2", "r2", "sl2", "heisenberg")


def _lie_by_name(name: str) -> StructureTensor:
    if name == "abelian1":
        return StructureTensor(1, {}, labels=("x",))
    if name == "abelian2":
        return StructureTensor(2, {}, labels=("x", "y"))
    if name == "r2":
        return _aff1()
    if name == "sl2":
        return sl2()
    if name == "heisenberg":
        return heisenberg()
    raise ValueError(f"unknown Lie algebra choice {name!r}")


def _rand_int_matrix(rng: random.Random, d: int, lo: int = -2, hi: int = 2) -> Matrix:
    return Matrix([[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)], cols=d)


def _unimodular_pair(rng: random.Random, d: int) -> tuple[Matrix, Matrix]:
    """A random integer matrix with integer inverse (product of shears)."""
    p = Matrix.identity(d)
    pinv = Matrix.identity(d)
    for _ in range(rng.randint(0, 2 * d)):
        a = rng.randrange(d)
        b = rng.randrange(d)
        if a == b:
            continue
        c = rng.choice([-2, -1, 1, 2])
        shear = Matrix([[1 if r == s else (c if (r, s) == (a, b) else 0)
                         for s in range(d)] for r in range(d)], cols=d)
        unshear = Matrix([[1 if r == s else (-c if (r, s) == (a, b) else 0)
                           for s in range(d)] for r in range(d)], cols=d)
        p = p @ shear
        pinv = unshear @ pinv
    return p, pinv


def _conjugate(mats: list[Matrix], p: Matrix, pinv: Matrix) -> list[Matrix]:
    return [p @ m @ pinv for m in mats]


def _sl2_irrep(size: int) -> tuple[Matrix, Matrix, Matrix]:
    """Integer matrices of the irreducible representation of dimension size.

    Basis v_0..v_{s-1}, highest weight s-1:
    h v_i = (s-1-2i) v_i, e v_i = (s-i) v_{i-1}, f v_i = (i+1) v_{i+1}.
    """
    s = size
    h = Matrix([[s - 1 - 2 * i if i == j else 0 for j in range(s)]
                for i in range(s)], cols=s)
    e = Matrix([[s - j if i == j - 1 else 0 for j in range(s)]
                for i in range(s)], cols=s)
    f = Matrix([[j + 1 if i == j + 1 else 0 for j in range(s)]
                for i in range(s)], cols=s)
    return h, e, f


def _block_diag(blocks: list[Matrix], d: int) -> Matrix:
    out = [[0] * d for _ in range(d)]
    pos = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[pos + i][pos + j] = b.entries[i][j]
        pos += b.rows
    return Matrix(out, cols=d)


def _candidate_action(rng: random.Random, name: str, lie: StructureTensor,
                      d: int) -> list[Matrix]:
    if name == "abelian1":
        return [_rand_int_matrix(rng, d)]
    if name == "abelian2":
        a = _rand_int_matrix(rng, d)
        c0, c1, c2 = (rng.randint(-2, 2) for _ in range(3))
        second = (Matrix.identity(d).scale(c0) + a.scale(c1)
                  + (a @ a).scale(c2))
        return [a, second]
    if name == "r2":
        diag = [rng.randint(-2, 2) for _ in range(d)]
        x = Matrix([[diag[i] if i == j else 0 for j in range(d)]
                    for i in range(d)], cols=d)
        y = Matrix([[rng.randint(-2, 2) if diag[i] - diag[j] == 1 else 0
                     for j in range(d)] for i in range(d)], cols=d)
        p, pinv = _unimodular_pair(rng, d)
        return _conjugate([x, y], p, pinv)
    if name == "sl2":
        sizes = []
        left = d
        while left > 0:
            s = rng.randint(1, left)
            sizes.append(s)
            left -= s
        hs, es, fs = [], [], []
        for s in sizes:
            h, e, f = _sl2_irrep(s)
            hs.append(h)
            es.append(e)
            fs.append(f)
        mats = [_block_diag(hs, d), _block_diag(es, d), _block_diag(fs, d)]
        p, pinv = _unimodular_pair(rng, d)
        return _conjugate(mats, p, pinv)
    if name == "heisenberg":
        if d >= 3 and rng.random() < 0.8:
            la, mu = rng.choice([1, 2, -1]), rng.choice([1, 2, -1])
            a = Matrix([[la if (i, j) == (0, 1) else 0 for j in range(d)]
                        for i in range(d)], cols=d)
            b = Matrix([[mu if (i, j) == (1, 2) else 0 for j in range(d)]
                        for i in range(d)], cols=d)
            z = Matrix([[la * mu if (i, j) == (0, 2) else 0 for j in range(d)]
                        for i in range(d)], cols=d)
        else:
            # central element acting by zero, e1 and e2 by commuting maps
            a = _rand_int_matrix(rng, d)
            c0, c1 = rng.randint(-2, 2), rng.randint(-2, 2)
            b = Matrix.identity(d).scale(c0) + a.scale(c1)
            z = Matrix.zeros(d, d)
        p, pinv = _unimodular_pair(rng, d)
        return _conjugate([a, b, z], p, pinv)
    raise ValueError(f"unknown Lie algebra choice {name!r}")


def random_hemisemidirect(seed: int, lie_choice: str = "r2",
                          module_dim: int = 2, budget: int = 60) -> StructureTensor:
    """Deterministic random hemisemidirect product.

    Draws candidate action matrices for the chosen Lie algebra until the
    module axiom holds (rejection with a budget), then forms the
    hemisemidirect bracket. The same seed always returns the same algebra.
    """
    if module_dim < 1:
        raise ValueError("module dimension must be positive")
    lie = _lie_by_name(lie_choice)
    rng = random.Random((seed, lie_choice, module_dim).__repr__())
    last_error: Optional[Exception] = None
    for _ in range(budget):
        try:
            action = ModuleAction(lie, _candidate_action(rng, lie_choice, lie, module_dim))
        except ValueError as exc:
            last_error = exc
            continue
        out = hemisemidirect(lie, action)
        if out.leibniz_violations:
            raise AssertionError("hemisemidirect product failed the left identity")
        return out
    raise RuntimeError(
        f"rejection budget exhausted for {lie_choice} module of dim {module_dim}: {last_error}")


# ---------------------------------------------------------------------------
# fixture descriptors

BUILDERS: dict[str, Callable[..., StructureTensor]] = {
    "sl2": sl2,
    "heisenberg": heisenberg,
    "abelian": abelian,
    "example-affine-one": example_affine_one,
    "example-affine-two": example_affine_two,
    "example-solvable": example_solvable,
}


@dataclass(frozen=True)
class FixtureDescriptor:
    """A named algebra plus its expected facts.

    Each fact value carries a source label: "reference" for published
    values, "trivial" for immediate consequences of the definitions, and
    "derived" for values frozen from an independent dense-elimination
    oracle (tests/oracle.py in the repository).
    """
    name: str
    builder: str
    params: dict
    expected: dict

    def build(self) -> StructureTensor:
        return BUILDERS[self.builder](**self.params)


def load_fixtures() -> list[FixtureDescriptor]:
    """All fixture descriptors shipped with the package."""
    out = []
    root = resources.files("leibnizalg").joinpath("fixtures")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        out.append(FixtureDescriptor(
            name=data["name"],
            builder=data["builder"],
            params=data.get("params", {}),
            expected=data.get("expected", {}),
        ))
    return out
