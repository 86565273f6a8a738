"""Steadiness check: rerun workloads on several seeds and compare spreads.

For every end-to-end metric of every workload, the spread is the distance
between the first and third quartile of the runs' values (as
``statistics.quantiles(values, n=4)`` gives them) over their median. A
spread above the metric's bound in BENCHMARK.json fails the check; a
spread above a third of the bound is flagged as wide. Run i uses seed i.

    python3 bench/steady.py                      # seeds 1-10 on every workload
    python3 bench/steady.py --runs 5 --workloads coverage_greedy --out runs.json

Runs go one at a time, so the benchmark never competes with itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", help="also write every run's metrics here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    results = {}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed")
                status = 1
                continue
            runs.append(result)
        results[workload] = runs
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} ops")
        print(f"  {'metric':<14}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            q1, q2, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            verdict = ""
            if s > bound:
                verdict, status = "FAIL", 1
            elif s > bound / 3:
                verdict = "wide"
            print(f"  {name:<14}{q1:>12.5g}{q2:>12.5g}{q3:>12.5g}{s:>9.3f}{bound:>7}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
