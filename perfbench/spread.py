#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the bound
BENCHMARK.json gives it.  A spread above a third of the bound is flagged.

From the repository root:

    python3 perfbench/spread.py --runs 10 --seed0 1000
    python3 perfbench/spread.py --workloads serve-light --runs 5 --json out.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds, delay_ns=0):
    """One end-to-end run; returns {metric: value}.  Exits on a failed or
    incorrect run.  delay_ns > 0 plants the self-test's generator delay."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    if delay_ns:
        cmd += ["--plant-delay-ns", str(delay_ns)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--json", default="")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    worst = (0.0, "")
    for w in names:
        runs = [run_once(spec, w, a.seed0 + i, spec["run_seconds"])
                for i in range(a.runs)]
        raw[w] = runs
        print(f"== {w} ({a.runs} runs)")
        for m, bound in bounds.items():
            med, sp = spread([r[m] for r in runs])
            share = sp / bound
            worst = max(worst, (share, f"{w} {m}"))
            flag = "  <-- above a third of the bound" if share > 1 / 3 else ""
            print(f"  {m:20s} median {med:14.6g}  spread {sp:7.4f}  bound {bound:5.2f}{flag}")
    print(f"worst spread / bound: {worst[0]:.3f} ({worst[1]})")
    if a.json:
        with open(a.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
