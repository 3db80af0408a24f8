"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--first-seed N] [--trace 0|1]
        [--workload NAME ...] [--out FILE]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds
run_seconds --trace T`, exactly as BENCHMARK.json specifies. For every
workload and metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the quartile spread as a share of the median, next to a third
of the metric's bound, and writes everything, raw values included, to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            print(f"{name} seed {seed}: exit {proc.returncode} correct {result['correct']}",
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()
                   if not k.endswith(".share")}, flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        stats = {}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            stats[metric] = {
                "unit": units[metric], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": vals,
            }
            bound = bounds.get(metric)
            flag = "" if bound is None else f" (bound/3 = {bound / 3:.4f})"
            print(f"  {name} {metric}: median {median:.6g} {units[metric]} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{flag}", flush=True)
        report[name] = stats
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
