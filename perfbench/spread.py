"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 [--first-seed 0] [--out perfbench/baseline.json]

Each run is a fresh, untraced process of ``run.py`` at ``run_seconds`` of
``BENCHMARK.json``, one after another. For every end-to-end metric of
every workload it prints the median and the spread, the distance between
the quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound; and the same for the metric read as
wall time. With ``--runs 1`` it is the one command that prints every
metric of every workload. ``--out`` also writes the quartiles, the values,
the machine and the seeds as JSON.
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

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = spec["end_to_end"]
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "platform": platform.platform()},
              "seconds": seconds, "seeds": seeds,
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {view: {m["name"]: [] for m in declared} for view in ("scaled", "wall")}
        failed = attempted = 0
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            wall = json.loads(lines[-2].removeprefix("wall "))
            for name, metric in result["metrics"].items():
                values["scaled"][name].append(metric["value"])
                values["wall"][name].append(wall[name])
        print(f"{workload}: {len(seeds)} runs, failure_rate "
              f"{failed / attempted:.6g} ({failed} of {attempted})")
        rows = {view: {} for view in values}
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            for view, row in rows.items():
                vals = values[view][name]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
                row[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": vals}
            scaled, wall = rows["scaled"][name], rows["wall"][name]
            flag = "  over 1/3 of bound" if scaled["spread"] > bound / 3 else ""
            print(f"  {name:16} {scaled['median']:>12.6g} {metric['unit']:4}"
                  f" spread {scaled['spread']:7.2%} bound {bound:.2f}"
                  f" | wall {wall['median']:>12.6g} spread {wall['spread']:7.2%}{flag}")
        report["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
