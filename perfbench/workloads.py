"""The three workloads: which algebras they build and what one pass runs.

Every workload is a closed loop with one caller: each library call is
issued after the previous one returns, on one thread, in one process.
"""

from __future__ import annotations

import contextlib
import io
from time import perf_counter

# example_solvable(n) has dimension n + 2.
SOLVABLE_N = {"full": (5, 8, 11), "tiny": (4,)}
ABELIAN_N = {"full": (7,), "tiny": (3,)}
# (Lie algebra, module dimension) of the hemisemidirect products.  The panel
# is drawn with the fixed catalog seeds 0, 1, ... and pinned like the other
# fixed inputs; the seeded products are drawn from the benchmark's seed.
# The panel carries most of the products' time: how long a product's
# queries take depends on its draw (a trivial sl2 action alone triples its
# factorization time), so with only seeded products the figures of a run
# would spread from one seed to the next by more than the bounds allow.
PANEL_PRODUCTS = {
    "full": (("heisenberg", 4), ("sl2", 4), ("r2", 5)),
    "tiny": (("r2", 2),),
}
SEEDED_PRODUCTS = {
    "full": (("heisenberg", 3), ("sl2", 3), ("r2", 4)),
    "tiny": (("heisenberg", 2),),
}
# The battery's sections at the tiny size: everything but the property
# battery, which is nine tenths of a pass.
TINY_BATTERY_SKIPS = ("property battery",)


def random_seed(seed: int, index: int) -> int:
    """Catalog seed of the index-th seeded product, derived from the benchmark
    seed; it never equals a panel seed for a seed of 0 or more."""
    return 1000 + seed * 100 + index


def build_algebras(pkg, workload: str, size: str, seed: int) -> list[tuple[str, object, bool]]:
    """(name, tensor, seeded) for every algebra the workload uses."""
    catalog = pkg.catalog
    if workload == "battery":
        return [(name, t, False) for name, t in pkg.verification.property_algebras()]
    if workload == "solvable-sweep":
        return [(f"solvable-{n}", catalog.example_solvable(n), False)
                for n in SOLVABLE_N[size]]
    out = [(f"abelian-{n}", catalog.abelian(n), False) for n in ABELIAN_N[size]]
    for index, (lie, mdim) in enumerate(PANEL_PRODUCTS[size]):
        out.append((f"panel-{lie}-{mdim}-s{index}",
                    catalog.random_hemisemidirect(index, lie, mdim), False))
    for index, (lie, mdim) in enumerate(SEEDED_PRODUCTS[size]):
        s = random_seed(seed, index)
        out.append((f"random-{lie}-{mdim}-s{s}",
                    catalog.random_hemisemidirect(s, lie, mdim), True))
    return out


# ---------------------------------------------------------------------------
# the sweep query set


def _sym_skew_dims(pkg, t, out):
    """Dimensions of the symmetric and skew parts, as the CLI computes them."""
    n = t.dim
    alg = pkg.algebra
    sym, skew = [], []
    for v in out["biderivation_space"].basis_vectors():
        b = alg.vec_to_bilinear(v, n)
        sym.append(alg.bilinear_to_vec(pkg.symmetric_part(b)))
        skew.append(alg.bilinear_to_vec(pkg.skew_part(b)))
    return (pkg.Subspace.from_vectors(sym, n ** 3).dim,
            pkg.Subspace.from_vectors(skew, n ** 3).dim)


def _factor(side, modulus):
    def call(pkg, t, out):
        sub = pkg.Subspace.zero(t.dim) if modulus == "zero" else out["leibniz_kernel"]
        fn = pkg.factor_left_modulo if side == "left" else pkg.factor_right_modulo
        return fn(t, pkg.BilinearTensor(t.c), sub)
    return call


# (query kind, step name, call); one step is one library call, in pass order.
QUERY_STEPS = (
    ("invariants", "require_validated", lambda pkg, t, out: t.require_validated()),
    ("invariants", "leibniz_kernel", lambda pkg, t, out: pkg.leibniz_kernel(t)),
    ("invariants", "left_center", lambda pkg, t, out: pkg.left_center(t)),
    ("invariants", "center", lambda pkg, t, out: pkg.center(t)),
    ("invariants", "quotient", lambda pkg, t, out: pkg.quotient(t, out["leibniz_kernel"])),
    ("derivations", "derivation_space", lambda pkg, t, out: pkg.derivation_space(t)),
    ("derivations", "inner_derivation_space",
     lambda pkg, t, out: pkg.inner_derivation_space(t)),
    ("completeness", "is_complete_def1", lambda pkg, t, out: pkg.is_complete_def1(t)),
    ("completeness", "is_complete_def2", lambda pkg, t, out: pkg.is_complete_def2(t)),
    ("biderivations", "left_biderivation_space",
     lambda pkg, t, out: pkg.left_biderivation_space(t)),
    ("biderivations", "right_biderivation_space",
     lambda pkg, t, out: pkg.right_biderivation_space(t)),
    ("biderivations", "biderivation_space", lambda pkg, t, out: pkg.biderivation_space(t)),
    ("biderivations", "loday_biderivation_space",
     lambda pkg, t, out: pkg.loday_biderivation_space(t)),
    ("biderivations", "symmetric_skew_dims", _sym_skew_dims),
    ("commuting", "commuting_map_space", lambda pkg, t, out: pkg.commuting_map_space(t)),
    ("commuting", "skew_commuting_map_space",
     lambda pkg, t, out: pkg.skew_commuting_map_space(t)),
    ("factor", "factor_left_zero", _factor("left", "zero")),
    ("factor", "factor_right_zero", _factor("right", "zero")),
    ("factor", "factor_left_kernel", _factor("left", "kernel")),
    ("factor", "factor_right_kernel", _factor("right", "kernel")),
)

KINDS = ("invariants", "derivations", "completeness", "biderivations", "commuting",
         "factor")


def sweep_pass(pkg, tensors, tracer=None):
    """Run the query set on each (name, tensor) in order.

    Returns (wall seconds, seconds per kind, outputs per algebra, errors per
    algebra).  A step that raises is recorded and the pass goes on.
    """
    kind_s = dict.fromkeys(KINDS, 0.0)
    outputs: dict[str, dict] = {}
    errors: dict[str, dict] = {}
    start = perf_counter()
    for name, t in tensors:
        out = outputs[name] = {}
        err = errors[name] = {}
        for kind, step, call in QUERY_STEPS:
            if tracer is not None:
                tracer.qid = f"{name}/{kind}"
            t0 = perf_counter()
            try:
                out[step] = call(pkg, t, out)
            except Exception as exc:  # noqa: BLE001 - a failed call is a counted outcome
                err[step] = f"{type(exc).__name__}: {exc}"
            kind_s[kind] += perf_counter() - t0
    return perf_counter() - start, kind_s, outputs, errors


def battery_pass(pkg):
    """``verify-paper`` in-process with stdout captured: (wall, lines, exit code)."""
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(["verify-paper"])
    wall = perf_counter() - start
    return wall, buf.getvalue().splitlines(), code
