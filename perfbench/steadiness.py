#!/usr/bin/env python3
"""Steadiness runs: each workload once per seed, then per end-to-end
metric the median, quartiles, and quartile spread as a share of the
median (statistics.quantiles(values, n=4)), against BENCHMARK.json's
bound for that metric.

    python3 perfbench/steadiness.py [--seeds 10] [--out perfbench/baseline.json]

Seeds run from 1 to --seeds, over every workload in BENCHMARK.json. A
metric is steady when its spread is within its bound (setup_s is exempt
from the spread rule); a spread above a third of the bound is flagged
as coarse, since the benchmark then resolves only changes of about that
size. --out writes the summary, which is how perfbench/baseline.json is
produced.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path)
    a = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": list(range(1, a.seeds + 1)),
               "run_seconds": bench["run_seconds"],
               "host": f"{platform.machine()}, "
                       f"{os.cpu_count()} cpus",
               "workloads": {}}
    steady = True
    for w in (w["name"] for w in bench["workloads"]):
        results = [run_once(w, s, bench["run_seconds"])
                   for s in summary["seeds"]]
        if not all(r["correct"] for r in results):
            sys.exit(f"{w}: a run reported incorrect outputs")
        rows = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= bound
            steady &= ok
            note = "" if ok else "  NOT STEADY"
            if ok and name != "setup_s" and spread > bound / 3:
                note = "  coarse (above a third of the bound)"
            rows[name] = {"unit": results[0]["metrics"][name]["unit"],
                          "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
            print(f"{w:14s} {name:12s} median {med:12.5f}  "
                  f"spread {spread:7.2%}  bound {bound:.0%}{note}",
                  flush=True)
        summary["workloads"][w] = rows
    if a.out:
        a.out.write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
