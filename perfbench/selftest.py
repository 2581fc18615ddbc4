#!/usr/bin/env python3
"""The benchmark's teeth: plant a busy-wait in the serve phase's generator
callback (never in program code) and check that

  - serve-light's events_per_s drops by more than its bound, and
  - load-mix's load-phase metrics (every load_* metric, setup_s and
    heap_peak_mb) stay within their bounds.

load-mix also serves a short stream through the same generator, so its
events_per_s / event_p50_us / event_p90_us are expected to move; they are
printed for the record but not judged.  Exits 1 if either check fails.

From the repository root:

    python3 perfbench/selftest.py                  # 3 runs per arm
    python3 perfbench/selftest.py --runs 1 --seconds 5
"""

import argparse
import json
import statistics
import sys

from spread import run_once

SERVE_METRICS = {"events_per_s", "event_p50_us", "event_p90_us", "ok_share"}


def medians(spec, workload, seeds, seconds, delay_ns):
    runs = [run_once(spec, workload, s, seconds, delay_ns) for s in seeds]
    return {m: statistics.median(r[m] for r in runs) for m in runs[0]}


def worse_by(metric, clean, planted):
    """How much worse planted is than clean, as a share of clean."""
    if clean == 0:
        return 0.0
    change = (planted - clean) / clean
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--delay-ns", type=int, default=15_000)
    ap.add_argument("--seed0", type=int, default=7000)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    seeds = [a.seed0 + i for i in range(a.runs)]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in ("serve-light", "load-mix"):
        clean = medians(spec, workload, seeds, seconds, 0)
        planted = medians(spec, workload, seeds, seconds, a.delay_ns)
        print(f"== {workload}: {a.delay_ns} ns planted per generator call")
        for name, m in metrics.items():
            w = worse_by(m, clean[name], planted[name])
            flagged = w > m["bound"]
            if workload == "serve-light":
                verdict = ("FLAGGED (expected)" if flagged else "NOT FLAGGED") \
                    if name == "events_per_s" else ""
                if name == "events_per_s" and not flagged:
                    ok = False
            else:
                if name in SERVE_METRICS:
                    verdict = "serve phase, not judged"
                else:
                    verdict = "FLAGGED" if flagged else "unchanged within bound"
                    ok = ok and not flagged
            print(f"  {name:20s} clean {clean[name]:12.6g}  planted {planted[name]:12.6g}"
                  f"  worse by {w:+7.3f} (bound {m['bound']:.2f})  {verdict}")
    print("selftest:", "OK" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
