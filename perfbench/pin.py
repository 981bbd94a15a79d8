"""Regenerate ``expected.json``: the pinned outputs the benchmark checks.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/pin.py

For the battery it pins every ``verify-paper`` line by section, the roll-up
line and the exit code, at both sizes.  For the sweeps it pins a digest of
every query output on the fixed algebras (``example_solvable``,
``abelian`` and the panel of products drawn with fixed seeds), after
checking those outputs by the same independent routes the benchmark uses
for seeded inputs.  Seeded algebras are not pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def pin_battery(pkg) -> dict:
    sections = {}
    for title, fn in pkg.verification.SECTIONS:
        sections[title] = [item.render() for item in fn()]
    names = [checks.parse_line(line)[0] for lines in sections.values() for line in lines]
    if len(names) != len(set(names)):
        raise SystemExit("battery item names are not unique")
    out = {"sections": sections, "rollup": {}, "exit_code": {}}
    for size in ("full", "tiny"):
        chosen = run.battery_sections(pkg, size)
        patcher = run.instrument.Patcher(pkg)
        patcher.rebind("verification", "SECTIONS",
                       [pair for pair in pkg.verification.SECTIONS if pair[0] in chosen])
        try:
            _wall, lines, code = workloads.battery_pass(pkg)
        finally:
            patcher.restore()
        if lines[:-1] != [line for title in chosen for line in sections[title]]:
            raise SystemExit("verify-paper lines differ from the section items")
        out["rollup"][",".join(chosen)] = lines[-1]
        out["exit_code"][",".join(chosen)] = code
    return out


def pin_sweep(pkg, workload: str) -> dict:
    out = {}
    for size in ("full", "tiny"):
        algebras = workloads.build_algebras(pkg, workload, size, seed=0)
        fixed = [(name, t) for name, t, seeded in algebras if not seeded]
        _wall, _kinds, outputs, errors = workloads.sweep_pass(pkg, fixed)
        pinned = {}
        for name, t in fixed:
            if errors[name]:
                raise SystemExit(f"{name}: {errors[name]}")
            problems = checks.independent_problems(pkg, t, outputs[name])
            if problems:
                raise SystemExit(f"{name}: {problems}")
            pinned[name] = {step: checks.digest(v) for step, v in outputs[name].items()}
            print(f"pinned {workload} {size} {name}", flush=True)
        out[size] = pinned
    return out


def main() -> int:
    src = run.ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = run.import_package(src)
    data = {"battery": pin_battery(pkg)}
    for workload in ("solvable-sweep", "wide-nullspace"):
        data[workload] = pin_sweep(pkg, workload)
    (BENCH / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
