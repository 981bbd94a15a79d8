"""Benchmark of the leibnizalg package: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 36 --trace 0

The run imports the package from ``src/`` of the checkout and builds the
workload's algebras (set-up, three times before every pass), then runs
whole passes until ``--seconds`` of measured time is used (at least two
passes), checking every answer after each pass, outside the timed region.
It prints a table of every metric by name and unit, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``.

``--trace 1`` runs one traced set-up, one untraced pass and one traced
pass, and writes the spans to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import instrument  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("battery", "solvable-sweep", "wide-nullspace")
# Set-ups run before every pass, so that their samples spread over the run
# like the passes do; the last one's package serves the pass.
SETUPS_PER_PASS = 3
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# set-up


def import_package(src: Path):
    """A fresh import of the package and its modules from ``src``."""
    for name in [m for m in sys.modules if m == "leibnizalg" or m.startswith("leibnizalg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("leibnizalg")
    for name in instrument.MODULE_NAMES:
        importlib.import_module(f"leibnizalg.{name}")
    if Path(pkg.__file__).resolve().parent != (src / "leibnizalg").resolve():
        raise SystemExit(f"error: leibnizalg imported from {pkg.__file__}, not {src}")
    return pkg


def build(pkg, args):
    """Build the workload's algebras and round-trip each through the file format."""
    algebras = workloads.build_algebras(pkg, args.workload, args.size, args.seed)
    texts = [(name, pkg.serialize_algebra(t), seeded) for name, t, seeded in algebras]
    parsed = [pkg.parse_algebra(text) for _name, text, _seeded in texts]
    return algebras, texts, parsed


def setup(src: Path, args, repeats: int, tracer=None):
    """Set up ``repeats`` times; returns (package, texts, seconds per set-up, problems).

    With a tracer, the last set-up's build is traced under a ``setup`` span.
    """
    samples = []
    for rep in range(repeats):
        gc.collect()
        t0 = perf_counter()
        pkg = import_package(src)
        if tracer is not None and rep == repeats - 1:
            patcher = instrument.Patcher(pkg)
            tracer.install(patcher)
            with tracer.span("setup"):
                algebras, texts, parsed = build(pkg, args)
            patcher.restore()
        else:
            algebras, texts, parsed = build(pkg, args)
        samples.append(perf_counter() - t0)
    problems = [f"file round trip changed {name}"
                for (name, t, _s), again in zip(algebras, parsed) if again != t]
    return pkg, texts, samples, problems


# ---------------------------------------------------------------------------
# passes and their checks


class Outcome:
    """Operations attempted and failed, every mismatch seen, and the digests
    and problems of each seeded algebra's first pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.first: dict[str, tuple] = {}

    def add(self, attempted, failed, mismatches):
        self.attempted += attempted
        self.failed += failed
        self.mismatches.extend(mismatches)


def check_sweep(pkg, tensors, outputs, errors, pinned, seeded, first) -> tuple:
    """(attempted, failed, mismatches) for one sweep pass.

    Fixed inputs are compared with pinned digests.  Seeded inputs are
    checked by independent routes on the first pass and must give the same
    digests on every later pass.
    """
    attempted = failed = 0
    mismatches = []
    for name, t in tensors:
        digests = {step: checks.digest(value) for step, value in outputs[name].items()}
        if name in seeded:
            if name not in first:
                problems = checks.independent_problems(pkg, t, outputs[name])
                first[name] = (digests, problems)
            reference, problems = first[name]
        else:
            reference, problems = pinned.get(name, {}), {}
        for _kind, step, _call in workloads.QUERY_STEPS:
            attempted += 1
            if step in errors[name]:
                failed += 1
                mismatches.append(f"{name} {step} raised {errors[name][step]}")
            elif digests.get(step) != reference.get(step):
                failed += 1
                mismatches.append(f"{name} {step}: output differs from "
                                  + ("the first pass" if name in seeded else "the pinned digest"))
            elif problems.get(step):
                failed += 1
                mismatches.extend(f"{name} {step}: {p}" for p in problems[step])
    return attempted, failed, mismatches


def battery_sections(pkg, size: str) -> list[str]:
    return [title for title, _fn in pkg.verification.SECTIONS
            if size == "full" or title not in workloads.TINY_BATTERY_SKIPS]


def run_pass(pkg, args, texts, expected, outcome, tracer=None):
    """One timed pass, traced when given a tracer, then its checks.

    Returns (wall seconds, seconds per query kind).
    """
    battery = args.workload == "battery"
    patcher = instrument.Patcher(pkg)
    timer = None
    if battery:
        sections = battery_sections(pkg, args.size)
        if args.size != "full":
            patcher.rebind("verification", "SECTIONS", [
                pair for pair in pkg.verification.SECTIONS if pair[0] in sections])
        if tracer is None:
            timer = instrument.QueryTimer()
            timer.install(patcher)
    else:
        tensors = [(name, pkg.parse_algebra(text)) for name, text, _seeded in texts]
    if tracer is not None:
        tracer.install(patcher)
    gc.collect()
    try:
        with tracer.span("pass") if tracer is not None else nullcontext():
            if battery:
                wall, lines, code = workloads.battery_pass(pkg)
            else:
                wall, kind_s, outputs, errors = workloads.sweep_pass(pkg, tensors, tracer)
    finally:
        patcher.restore()
    if battery:
        outcome.add(*checks.battery_outcome(lines, code, expected, sections))
        kind_s = dict(timer.seconds) if timer is not None else {}
    else:
        seeded = {name for name, _text, is_seeded in texts if is_seeded}
        outcome.add(*check_sweep(pkg, tensors, outputs, errors,
                                 expected.get(args.size, {}), seeded, outcome.first))
    return wall, kind_s


# ---------------------------------------------------------------------------
# statistics and reporting


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    out = {"n": n, "median": statistics.median(ordered), "q1": q1, "q3": q3,
           "samples": samples}
    if n >= 11:
        out["tail_percentile"] = round(100 * (n - 10) / n, 1)
        out["tail"] = ordered[n - 11]
    return out


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' without it."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's tests")
    parser.add_argument("--expected", type=Path, default=BENCH / "expected.json",
                        help="pinned outputs to check against")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "leibnizalg" / "__init__.py").is_file():
        print(f"error: no leibnizalg package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    expected = json.loads(args.expected.read_text())[args.workload]
    traced = bool(args.trace)
    tracer = instrument.Tracer() if traced else None

    outcome = Outcome()
    setup_s, walls, kinds = [], [], {k: [] for k in workloads.KINDS}
    if traced:
        pkg, texts, _, problems = setup(src, args, 1, tracer)
        outcome.mismatches.extend(problems)
        untraced_wall, _ = run_pass(pkg, args, texts, expected, outcome)
        pass_mark, bookkeeping = tracer.mark(), tracer.bookkeeping
        traced_wall, _ = run_pass(pkg, args, texts, expected, outcome, tracer)
        self_sum = tracer.self_seconds_since(pass_mark)
        bookkeeping = tracer.bookkeeping - bookkeeping
        walls = [traced_wall]
    else:
        while len(walls) < MIN_PASSES or sum(walls) + walls[-1] <= args.seconds:
            pkg, texts, samples, problems = setup(src, args, SETUPS_PER_PASS)
            setup_s.extend(samples)
            if not walls:
                outcome.mismatches.extend(problems)
            wall, kind_s = run_pass(pkg, args, texts, expected, outcome)
            walls.append(wall)
            for kind, seconds in kind_s.items():
                kinds[kind].append(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summaries: dict[str, tuple[dict, str]] = {}
    if traced:
        section_keys = [instrument.section_key(fn) for _t, fn in pkg.verification.SECTIONS]
        predicates = [fn.__name__ for _t, fn in pkg.verification.PROPERTY_PREDICATES]
        layer = instrument.layer_metrics(tracer, section_keys, predicates)
        layer.update({
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.self_sum_s": (self_sum, "s"),
            "trace.bookkeeping_s": (bookkeeping, "s"),
            "trace.spans": (len(tracer.spans), "count"),
        })
        for name, (value, unit) in layer.items():
            summaries[name] = (summarize([value]), unit)
    else:
        summaries["setup_s"] = (summarize(setup_s), "s")
        summaries["wall_s"] = (summarize(walls), "s")
        for kind, values in kinds.items():
            summaries[f"{kind}_s"] = (summarize(values), "s")
        summaries["peak_rss_mb"] = (summarize([peak_rss_mb]), "MB")
    summaries["ops_failed_ratio"] = (summarize([outcome.failed / outcome.attempted]), "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "passes": len(walls),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT), "attempted": outcome.attempted,
        "failed": outcome.failed, "mismatches": outcome.mismatches,
        "metrics": {name: dict(s, unit=unit) for name, (s, unit) in summaries.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (args.out / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        tracer.dump(args.out / f"spans-{stem}.jsonl")

    print(f"# {args.workload} ({args.size}), seed {args.seed}, {len(walls)} passes, "
          f"python {record['python']}, nproc {record['nproc']}, sha {record['git_sha']}")
    for name, (s, unit) in summaries.items():
        tail = (f"  p{s['tail_percentile']:g} {s['tail']:.6g}" if "tail" in s else "")
        print(f"{name:48s} {s['median']:12.6g} {unit:6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}{tail}")
    print(f"# operations: {outcome.attempted} attempted, {outcome.failed} failed; "
          f"{len(outcome.mismatches)} mismatches")
    for line in outcome.mismatches[:20]:
        print(f"#   {line}")

    metrics = {}
    for name, unit in declared_metrics(traced):
        if name not in summaries:
            raise SystemExit(f"error: metric {name} was not measured")
        metrics[name] = {"value": summaries[name][0]["median"], "unit": unit}
    print(json.dumps({"correct": not outcome.mismatches, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
