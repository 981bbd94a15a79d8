"""Wrappers installed from outside the program: query timers and the tracer.

Nothing here edits the package's source.  ``Patcher`` swaps a function for
a wrapper in every module namespace that holds it (the package re-exports
and each ``from .x import y`` binding), on class attributes, and inside the
registries that keep function references (``catalog.BUILDERS``,
``verification.SECTIONS``, ``verification.PROPERTY_PREDICATES``).
``restore()`` puts every original back.

Two instruments use it:

* ``QueryTimer`` times the outermost call of each query kind.  The battery
  calls the library from inside ``verify-paper``, so this is how its
  per-query latencies are read; it wraps a few hundred calls per pass.
* ``Tracer`` records a span per call at each layer boundary (name, start,
  end, parent span, query id), aggregates the hot ``add_equation`` calls
  without storing a span each, and only counts the hottest leaves
  (``bracket``, ``Matrix.apply``, ``Matrix.__matmul__``).
"""

from __future__ import annotations

import json
import weakref
from contextlib import contextmanager
from time import perf_counter

# Query kinds in pass order, with the library entry points that make them.
QUERY_KINDS = {
    "invariants": ("algebra.check_left_leibniz", "algebra.leibniz_kernel",
                   "algebra.left_center", "algebra.center", "algebra.quotient"),
    "derivations": ("derivations.derivation_space",
                    "derivations.inner_derivation_space"),
    "completeness": ("derivations.is_complete_def1", "derivations.is_complete_def2"),
    "biderivations": ("biderivations.left_biderivation_space",
                      "biderivations.right_biderivation_space",
                      "biderivations.biderivation_space",
                      "biderivations.loday_biderivation_space"),
    "commuting": ("biderivations.commuting_map_space",
                  "biderivations.skew_commuting_map_space"),
    "factor": ("biderivations.factor_left_modulo", "biderivations.factor_right_modulo"),
}

# Public functions spanned by the tracer, by defining module.
SPANNED = {
    "fileformat": ("parse_algebra", "serialize_algebra", "parse_bilinear",
                   "serialize_bilinear"),
    "catalog": ("sl2", "heisenberg", "abelian", "example_affine_one",
                "example_affine_two", "example_solvable", "random_hemisemidirect",
                "load_fixtures"),
    "algebra": ("check_left_leibniz", "leibniz_kernel", "left_center", "center",
                "is_ideal", "quotient", "is_lie", "opposite", "hemisemidirect"),
    "derivations": ("is_derivation", "derivation_space", "inner_derivation_space",
                    "left_multiplication", "is_complete_def1", "is_complete_def2"),
    "biderivations": ("is_left_biderivation", "is_right_biderivation",
                      "is_biderivation", "left_biderivation_space",
                      "right_biderivation_space", "biderivation_space",
                      "loday_biderivation_space", "factor_left_modulo",
                      "factor_right_modulo", "map_bracket_tensor",
                      "commuting_map_space", "skew_commuting_map_space",
                      "verify_prop_commuting", "converse_def2_sym_skew",
                      "symmetric_part", "skew_part"),
    "linalg": ("subspace_intersection", "subspace_sum"),
    "verification": ("run_all",),
    "cli": ("main",),
}

MODULE_NAMES = ("linalg", "algebra", "derivations", "biderivations", "catalog",
                "fileformat", "verification", "cli")


def section_key(fn) -> str:
    """Metric key of a verification section: its function name minus ``_checks``."""
    name = fn.__name__
    return name[:-len("_checks")] if name.endswith("_checks") else name


class Patcher:
    """Swaps callables for wrappers and remembers how to put them back."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.modules = {name: getattr(pkg, name) for name in MODULE_NAMES}
        self._undo: list = []

    def function(self, module: str, name: str, make) -> None:
        """Wrap ``module.name`` wherever the same object is bound."""
        orig = getattr(self.modules[module], name)
        wrapped = make(orig, f"{module}.{name}")
        for ns in (self.pkg, *self.modules.values()):
            if ns.__dict__.get(name) is orig:
                self._set(ns, name, wrapped)
        builders = self.modules["catalog"].BUILDERS
        for key, fn in list(builders.items()):
            if fn is orig:
                self._undo.append(("item", builders, key, fn))
                builders[key] = wrapped

    def method(self, module: str, cls: str, name: str, make) -> None:
        owner = getattr(self.modules[module], cls)
        raw = owner.__dict__[name]
        label = f"{module}.{cls}.{name}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__, label))
        else:
            wrapped = make(raw, label)
        self._set(owner, name, wrapped)

    def registry(self, module: str, attr: str, label) -> None:
        """Rebind a list of (title, function) pairs with wrapped functions."""
        pairs = getattr(self.modules[module], attr)
        self.rebind(module, attr, [(title, label(fn)) for title, fn in pairs])

    def rebind(self, module: str, attr: str, value) -> None:
        self._set(self.modules[module], attr, value)

    def _set(self, owner, name, value) -> None:
        self._undo.append(("attr", owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for kind, owner, key, value in reversed(self._undo):
            if kind == "attr":
                setattr(owner, key, value)
            else:
                owner[key] = value
        self._undo.clear()


# ---------------------------------------------------------------------------
# query timers (untraced runs)


class QueryTimer:
    """Summed latency of the outermost call of each query kind."""

    def __init__(self):
        self.seconds = dict.fromkeys(QUERY_KINDS, 0.0)
        self._depth = 0

    def install(self, patcher: Patcher) -> None:
        for kind, names in QUERY_KINDS.items():
            for qualified in names:
                module, name = qualified.split(".")
                patcher.function(module, name, self._wrap(kind))

    def _wrap(self, kind):
        def make(fn, _label):
            def timed(*args, **kwargs):
                if self._depth:
                    return fn(*args, **kwargs)
                self._depth = 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[kind] += perf_counter() - t0
                    self._depth = 0
            return timed
        return make


# ---------------------------------------------------------------------------
# tracer


def basis_bits(space) -> int:
    """Largest numerator or denominator bit length in a canonical basis."""
    best = 0
    for row in space.basis.entries:
        for x in row:
            if x:
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
                if b > best:
                    best = b
    return best


class Tracer:
    """Spans at layer boundaries, kept in memory until the run ends.

    A span is ``(id, name, start, end, parent id, query id, self seconds)``.
    Self time is the span's duration minus the time its child spans (and
    aggregated child calls) cover.  Bookkeeping that inspects a result
    (subspace sizes, coefficient bits) is timed apart and charged to no
    span, so the self times plus ``bookkeeping`` add up to the traced wall
    time.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {"algebra.bracket": 0, "linalg.Matrix.apply": 0,
                       "linalg.Matrix.__matmul__": 0,
                       "algebra.ModuleAction.__init__": 0}
        self.agg_calls = 0
        self.agg_seconds = 0.0
        self.bookkeeping = 0.0
        self.qid = ""
        self.rank_sum = 0
        self.offered_sum = 0
        self.unknowns_max = 0
        self.subspace_dim_max = 0
        self.basis_max_bits = 0
        self._offered = weakref.WeakKeyDictionary()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    # -- span bookkeeping ------------------------------------------------

    def open(self, name: str) -> tuple:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame, parent, self.qid, perf_counter()

    def close(self, name: str, token: tuple) -> None:
        end = perf_counter()
        frame, parent, qid, start = token
        self._stack.pop()
        duration = end - start
        self.spans.append((frame[0], name, start, end, parent, qid, duration - frame[1]))
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(name, token)

    def mark(self) -> tuple:
        """Where the record stands now, to total the self times after it."""
        return len(self.spans), self.agg_seconds

    def self_seconds_since(self, mark: tuple) -> float:
        """Self time of every span and aggregated call recorded after ``mark``."""
        start, agg = mark
        return sum(span[6] for span in self.spans[start:]) + self.agg_seconds - agg

    def _charge_bookkeeping(self, seconds: float) -> None:
        self.bookkeeping += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    # -- wrappers --------------------------------------------------------

    def _spanned(self, observe=None):
        def make(fn, label):
            def traced(*args, **kwargs):
                token = self.open(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(label, token)
                if observe is not None:
                    b0 = perf_counter()
                    observe(args, result)
                    self._charge_bookkeeping(perf_counter() - b0)
                return result
            return traced
        return make

    def _counted(self, fn, label):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return counted

    def _aggregated(self, fn, _label):
        offered = self._offered
        stack = self._stack

        def add_equation(system, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(system, *args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                self.agg_calls += 1
                self.agg_seconds += seconds
                offered[system] = offered.get(system, 0) + 1
                if stack:
                    stack[-1][1] += seconds
        return add_equation

    def _observe_subspace(self, _args, result) -> None:
        if result is not None and hasattr(result, "basis"):
            self.subspace_dim_max = max(self.subspace_dim_max, result.dim)
            self.basis_max_bits = max(self.basis_max_bits, basis_bits(result))

    def _observe_solve(self, args, result) -> None:
        system = args[0]
        self.rank_sum += system.rank
        self.offered_sum += self._offered.get(system, 0)
        self.unknowns_max = max(self.unknowns_max, system.nunknowns)
        if hasattr(result, "basis"):
            self._observe_subspace(args, result)

    def install(self, patcher: Patcher) -> None:
        for module, names in SPANNED.items():
            for name in names:
                observe = self._observe_subspace if module == "linalg" else None
                patcher.function(module, name, self._spanned(observe))
        patcher.function("algebra", "bracket", self._counted)
        patcher.method("linalg", "Matrix", "apply", self._counted)
        patcher.method("linalg", "Matrix", "__matmul__", self._counted)
        patcher.method("algebra", "ModuleAction", "__init__", self._counted)
        patcher.method("linalg", "LinearSystem", "add_equation", self._aggregated)
        patcher.method("linalg", "LinearSystem", "nullspace",
                       self._spanned(self._observe_solve))
        patcher.method("linalg", "LinearSystem", "particular_solution",
                       self._spanned(self._observe_solve))
        patcher.method("linalg", "Subspace", "from_vectors",
                       self._spanned(self._observe_subspace))
        patcher.registry("verification", "SECTIONS", self._section)
        patcher.registry("verification", "PROPERTY_PREDICATES", self._predicate)

    def _section(self, fn):
        label = f"verification.{section_key(fn)}"
        inner = self._spanned()(fn, label)

        def section(*args, **kwargs):
            self.qid = label
            return inner(*args, **kwargs)
        return section

    def _predicate(self, fn):
        return self._spanned()(fn, f"verification.property.{fn.__name__}")

    # -- results ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["id", "name", "start", "end", "parent", "qid",
                                  "self"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _inclusive(spans, by_id, names) -> float:
    """Summed duration of spans named in ``names`` not nested in another such span."""
    total = 0.0
    for span in spans:
        if span[1] not in names:
            continue
        parent = by_id.get(span[4])
        while parent is not None and parent[1] not in names:
            parent = by_id.get(parent[4])
        if parent is None:
            total += span[3] - span[2]
    return total


def _self(spans, names) -> float:
    return sum(span[6] for span in spans if span[1] in names)


def layer_metrics(tracer: Tracer, section_keys, predicate_names) -> dict[str, tuple]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    spans = tracer.spans
    by_id = {span[0]: span for span in spans}

    def incl(*names):
        return _inclusive(spans, by_id, set(names)), "s"

    def count(name):
        return sum(1 for span in spans if span[1] == name), "count"

    catalog = {f"catalog.{n}" for n in SPANNED["catalog"]}
    accepted = sum(1 for span in spans if span[1] in (
        "catalog.random_hemisemidirect", "catalog.example_affine_one",
        "catalog.example_affine_two"))
    out = {
        "fileformat.parse_s": incl("fileformat.parse_algebra", "fileformat.parse_bilinear"),
        "fileformat.serialize_s": incl("fileformat.serialize_algebra",
                                       "fileformat.serialize_bilinear"),
        "catalog.build_s": incl(*catalog),
        "catalog.accept_ratio": (
            ratio(accepted, tracer.counts["algebra.ModuleAction.__init__"]), "ratio"),
        "algebra.check_left_leibniz_s": incl("algebra.check_left_leibniz"),
        "algebra.kernel_center_s": incl("algebra.leibniz_kernel", "algebra.left_center",
                                        "algebra.center", "algebra.is_ideal",
                                        "algebra.quotient"),
        "algebra.bracket_calls": (tracer.counts["algebra.bracket"], "count"),
        "derivations.is_derivation_calls": count("derivations.is_derivation"),
        "derivations.is_derivation_s": incl("derivations.is_derivation"),
        "derivations.derivation_space_self_s": (
            _self(spans, {"derivations.derivation_space"}), "s"),
        "biderivations.rows_self_s": (_self(spans, {
            "biderivations.left_biderivation_space",
            "biderivations.right_biderivation_space",
            "biderivations.biderivation_space",
            "biderivations.loday_biderivation_space",
            "biderivations.commuting_map_space",
            "biderivations.skew_commuting_map_space"}), "s"),
        "biderivations.is_biderivation_calls": count("biderivations.is_biderivation"),
        "biderivations.factor_self_s": (_self(spans, {
            "biderivations.factor_left_modulo",
            "biderivations.factor_right_modulo"}), "s"),
        "linalg.equations": (tracer.agg_calls, "count"),
        "linalg.eliminate_s": (tracer.agg_seconds, "s"),
        "linalg.rank_ratio": (ratio(tracer.rank_sum, tracer.offered_sum), "ratio"),
        "linalg.unknowns_max": (tracer.unknowns_max, "count"),
        "linalg.nullspace_s": incl("linalg.LinearSystem.nullspace"),
        "linalg.from_vectors_s": incl("linalg.Subspace.from_vectors"),
        "linalg.intersection_s": incl("linalg.subspace_intersection"),
        "linalg.subspace_dim_max": (tracer.subspace_dim_max, "count"),
        "linalg.basis_max_bits": (tracer.basis_max_bits, "bits"),
        "linalg.matrix_apply_calls": (tracer.counts["linalg.Matrix.apply"], "count"),
        "linalg.matmul_calls": (tracer.counts["linalg.Matrix.__matmul__"], "count"),
    }
    for key in section_keys:
        out[f"verification.{key}_s"] = incl(f"verification.{key}")
    for name in predicate_names:
        out[f"verification.property.{name}_s"] = incl(f"verification.property.{name}")
    out["cli.self_s"] = (_self(spans, {"cli.main"}), "s")
    return out


def ratio(num, den) -> float:
    """``num / den``; 1.0 when nothing was attempted (nothing was wasted)."""
    return num / den if den else 1.0
