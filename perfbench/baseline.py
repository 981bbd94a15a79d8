"""Run the benchmark on several seeds and record its baseline and spreads.

From the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --first-seed 100

runs ``run.py`` once per seed on every workload (one run at a time, each
waited for), then prints, per workload and end-to-end metric, the median of
the per-run values, their quartiles, and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against.  With ``--write`` the summary
goes to ``perfbench/baseline.json`` together with the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import git_sha  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default all")
    parser.add_argument("--write", action="store_true",
                        help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary = {}
    for workload in names:
        rows = []
        for seed in seeds:
            rows.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: correct {rows[-1]['correct']}, "
                  f"{rows[-1]['failed']}/{rows[-1]['attempted']} failed", flush=True)
        metrics = {}
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            metrics[name] = {"unit": rows[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                             "bound": bounds[name], "values": values}
            print(f"  {name:16s} median {median:10.5g}  spread {(q3 - q1) / median:6.3f}"
                  f"  bound {bounds[name]}", flush=True)
        summary[workload] = {
            "correct": all(r["correct"] for r in rows),
            "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows),
            "metrics": metrics,
        }
    if args.write:
        record = {"seeds": seeds, "run_seconds": spec["run_seconds"],
                  "python": platform.python_version(), "nproc": os.cpu_count(),
                  "git_sha": git_sha(ROOT), "workloads": summary}
        (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
