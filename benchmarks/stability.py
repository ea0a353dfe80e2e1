"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/stability.py --seeds 10 [--workloads cli,oracle_small]
                                    [--first-seed 1] [--trace 0]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound is
flagged.  All runs' results go to .bench_out/stability-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            last = json.loads(proc.stdout.splitlines()[-1])
            runs[workload].append(last)
            values = {k: round(v["value"], 4) for k, v in last["metrics"].items()}
            print(f"{workload} seed {seed}: correct={last['correct']} {values}",
                  flush=True)

    print()
    for workload, results in runs.items():
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{workload:<13} {metric:<16} median {med:>11.5g}  spread "
                  f"{spread:6.3f}  bound {bound}{flag}")
        print(f"{workload:<13} correct in {sum(r['correct'] for r in results)}"
              f" of {len(results)} runs")
    out = ROOT / ".bench_out" / f"stability-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
