#!/usr/bin/env python3
"""Self-checks of the host-time benchmark.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json keeps to its schema: exact keys and value limits.
2. Every printed metric matches BENCHMARK.json by name and unit:
   end_to_end with --trace 0, per_layer with --trace 1, on every workload.
3. An injected checksum mismatch (--inject-mismatch) is caught: the run
   reports failed > 0 and correct = false.
4. Two traced invocations with one seed print the same sim.stats_digest
   and the same counts.
5. In a directory holding only BENCHMARK.json and perfbench/, the
   command exits nonzero without printing a result.

Exits 0 when every check passes.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNT_UNITS = {"count", "bytes", "hash"}
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(root, workload, trace, *extra, seed=7):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result


def check_schema(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the schema's keys")
    check(isinstance(bench["run_seconds"], int) and
          1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    check(all((ROOT / p).is_dir() for p in bench["paths"]),
          "every path is a directory")
    check(2 <= len(bench["workloads"]) <= 8 and
          all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and
              "\n" not in w["why"] for w in bench["workloads"]),
          "workloads are well-formed")
    check(all(set(m) == {"name", "unit", "better", "bound"} and
              0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "end_to_end entries are well-formed")
    check(all(set(m) == {"name", "unit", "better"}
              for m in bench["per_layer"]), "per_layer entries are well-formed")
    metrics = bench["end_to_end"] + bench["per_layer"]
    bad = [m["name"] for m in metrics
           if not (NAME.match(m["name"]) and UNIT.match(m["unit"]) and
                   m["better"] in ("higher", "lower"))]
    check(not bad, f"metric names, units and directions are valid {bad}")
    names = [w["name"] for w in bench["workloads"]] + \
        [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "every name is used once")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in bench["end_to_end"]),
          "setup_s is an end_to_end metric")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_schema(bench)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for w in (w["name"] for w in bench["workloads"]):
        traced = []
        for trace in (0, 1, 1):
            rc, res = run(ROOT, w, trace)
            if rc != 0 or res is None:
                check(False, f"{w} --trace {trace} printed a result")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace], f"{w} --trace {trace}: metric names "
                                      "and units match BENCHMARK.json")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{w} --trace {trace}: correct")
            if trace:
                traced.append(res["metrics"])
        if len(traced) == 2:
            counts = [n for n, u in want[1].items()
                      if u in COUNT_UNITS and n != "passes"]
            same = all(traced[0][n]["value"] == traced[1][n]["value"]
                       for n in counts)
            check(same, f"{w}: two invocations agree on sim.stats_digest "
                        f"and every count ({len(counts)} metrics)")

    for w in ("live_patterns", "crash_explore"):
        rc, res = run(ROOT, w, 0, "--inject-mismatch")
        check(rc == 0 and res is not None and res["failed"] > 0 and
              not res["correct"], f"{w}: injected mismatch raises failed")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    rc, res = run(bare, "crash_explore", 0)
    check(rc != 0 and res is None,
          "without the poat sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
