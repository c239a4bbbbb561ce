"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...]

For every workload (all of BENCHMARK.json's by default) it runs run.py
once per seed 1..runs with --trace 0 and prints, for each end-to-end
metric, the median, the quartiles and the spread: the distance between
the quartiles as a share of the median, as statistics.quantiles(n=4)
gives them.  A spread above a third of the metric's bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for name in workloads:
        values = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{name} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={values[m][-1]:.4g}" for m in bounds), flush=True)
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "  > bound/3" if spread > bounds[m] / 3 else ""
            print(f"{name} {m}: median {med:.4g} [q1 {q1:.4g}, q3 {q3:.4g}] "
                  f"spread {spread:.3f} (bound {bounds[m]}){flag}", flush=True)


if __name__ == "__main__":
    main()
