#!/usr/bin/env python3
"""Bench smoke test: bench binaries through the parallel sweep.

Runs fig9a at tiny scale with --jobs=2 --stats-json and validates the
report: the JSON parses, there is exactly one run record per submitted
config (6 microbenchmarks x 3 patterns x 4 variants = 72), labels are
unique and in submission order (base before opt for every workload x
pattern group), every record carries its config and hierarchical stats,
and the summary block holds the headline geomeans. A second pass with
--cpi-stack --seeds=42,43 validates the CPI stacks (components sum
exactly to each run's cycles, both in the printed tables and in every
recorded run's core.cpi stats), the multi-seed error bars (one
error_bars record per config with mean/stddev for every headline
metric), and the run list (the first seed's 72 runs in submission
order, then the second seed's in the same order).

When a fig11 binary is also given, exercises --trace-cache end to end:
a cached --quick run must emit a stats report byte-for-byte identical
to the uncached one, populate the cache directory with .itrace files on
the first (capturing) pass, and reuse them untouched on the second
(replaying) pass.

When a crash_explore binary is also given, runs a tiny exhaustive
crash-point exploration (must pass and print coverage), replays a
reproducer string, and checks the strict CLI: --help exits 0, an
unknown flag is rejected with exit status 2.

When a timeline_dump binary is also given, exercises --timeline=N end
to end: the stats report stays byte-identical to a timeline-off run,
every run emits a parseable poat-timeline stream whose row count is
exactly ceil(cycles / N), per-row CPI component deltas sum to the row's
cycle delta, and the --chrome conversion yields loadable JSON of
"ph":"C" counter events. The same pass checks --trace=DIR: the stats
report stays byte-identical, every run writes its own loadable Chrome
trace, and a parallel sweep stays parallel.

When fig_cores and contention_report binaries are also given, checks
the concurrency-observability surface: --contention prints per-run
lock/abort/critical-path reports, the lock.*/sched.*/cp.* subtrees in
the saved stats satisfy their invariants (critical path bounded by the
makespan; running + blocked cycles tile it per core), the
contention_report tool renders text and JSON from the saved report
(strict CLI: unknown flag exits 2, unreadable input exits 1), a
sequential bench accepts --contention with a "no multi-core runs"
note, and a --timeline-cores run leaves the stats report
byte-identical while writing one stream per run with exactly
ceil(cycles / N) rows.

When fig12_pot_walk and simulate binaries are also given, checks that
fig12 --jobs=4, whose labels repeat (they omit the walk latency),
still writes one parseable timeline per run, and that malformed
numbers (--jobs=abc, --scale=x, a 20-digit --jobs, a signed
--seed, an empty --txns), an empty --seeds list, --timeline=0, and an
unknown simulate workload or flag each print a diagnostic plus the
usage text on stderr and exit 2 instead of aborting, and that an
output path fig12 cannot write (--trace, --timeline-dir or
--trace-cache naming a regular file) exits 1 with a diagnostic that
names it.

Usage: bench_smoke.py <fig9a_speedup_inorder> [<fig11_polb_size>
       [<crash_explore> [<timeline_dump> [<fig_cores>
       [<contention_report> [<fig12_pot_walk> [<simulate>]]]]]]]
"""

import json
import subprocess
import sys
import tempfile
import os


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def run_bench(cmd, timeout=1200):
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        fail(
            "%s exited %d\nstdout:\n%s\nstderr:\n%s"
            % (cmd[0], proc.returncode, proc.stdout, proc.stderr)
        )
    return proc


def check_submission_order(labels):
    """Submission order survives the parallel sweep: every group of
    four fig9a labels is base, opt_pipelined, opt_parallel, opt_ideal
    of one workload and pattern."""
    suffixes = [".base", ".opt_pipelined", ".opt_parallel", ".opt_ideal"]
    for i in range(0, len(labels), 4):
        group = labels[i : i + 4]
        prefix = group[0].rsplit(".base", 1)[0]
        for label, suffix in zip(group, suffixes):
            want = prefix + suffix + ".inorder"
            if label != want:
                fail(
                    "run %d out of submission order: got %r, want %r"
                    % (i, label, want)
                )


CPI_COMPONENTS = [
    "base", "branch", "iside", "l1d", "l2", "l3", "mem", "tlb",
    "sw_translate", "polb", "pot_walk", "flush", "fence",
]


def check_cpi_and_seeds(bench):
    """--cpi-stack prints per-run stacks; --seeds emits error bars."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "seeds.json")
        proc = run_bench(
            [
                bench,
                "--scale=5",
                "--no-tpcc",
                "--jobs=2",
                "--cpi-stack",
                "--seeds=42,43",
                "--stats-json=" + out,
            ]
        )
        with open(out) as f:
            report = json.load(f)

    if "CPI stack:" not in proc.stdout:
        fail("--cpi-stack printed no stacks")
    for needle in ("sw_translate", "total", "error bars over 2 seeds"):
        if needle not in proc.stdout:
            fail("--cpi-stack/--seeds output missing %r" % needle)

    bars = report.get("error_bars")
    n_configs = 6 * 3 * 4
    if not isinstance(bars, list) or len(bars) != n_configs:
        fail(
            "expected %d error_bars, got %s"
            % (n_configs, len(bars) if isinstance(bars, list) else bars)
        )
    for b in bars:
        if b.get("samples") != 2:
            fail("error bar %r has samples != 2" % b.get("label"))
        for metric in ("cycles", "instructions", "ipc"):
            m = b.get(metric)
            if (
                not isinstance(m, dict)
                or not isinstance(m.get("mean"), (int, float))
                or not isinstance(m.get("stddev"), (int, float))
            ):
                fail(
                    "error bar %r metric %r malformed: %r"
                    % (b.get("label"), metric, m)
                )

    # The report lists the primary seed's runs in submission order,
    # then the second seed's runs in the same order.
    runs = report["runs"]
    if len(runs) != 2 * n_configs:
        fail("expected %d runs over 2 seeds, got %d"
             % (2 * n_configs, len(runs)))
    check_submission_order([r["label"] for r in runs[:n_configs]])
    for i in range(n_configs):
        first, second = runs[i], runs[n_configs + i]
        if (first["label"] != second["label"]
                or first["config"]["seed"] != 42
                or second["config"]["seed"] != 43):
            fail("run %d: seed runs out of order: %r seed %r, then %r "
                 "seed %r" % (i, first["label"], first["config"]["seed"],
                              second["label"], second["config"]["seed"]))

    # Every recorded run carries a CPI stack whose components sum
    # exactly to the run's total cycles.
    for r in runs:
        cpi = r["stats"].get("core", {}).get("cpi")
        if not isinstance(cpi, dict):
            fail("run %r has no core.cpi stack" % r["label"])
        total = cpi.get("total")
        summed = sum(cpi.get(c, 0) for c in CPI_COMPONENTS)
        if total != summed or total != r["cycles"]:
            fail(
                "run %r CPI stack does not sum: total=%r sum=%r "
                "cycles=%r" % (r["label"], total, summed, r["cycles"])
            )
    print(
        "OK: CPI stacks sum exactly on %d runs, %d error bars over 2 "
        "seeds" % (len(report["runs"]), len(bars))
    )


def check_trace_cache(bench):
    """fig11 --quick with --trace-cache: identical report, cache reused."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "itrace-cache")
        plain = os.path.join(tmp, "plain.json")
        cold = os.path.join(tmp, "cold.json")
        warm = os.path.join(tmp, "warm.json")
        base = [bench, "--quick", "--jobs=2"]

        run_bench(base + ["--stats-json=" + plain])
        run_bench(base + ["--stats-json=" + cold, "--trace-cache=" + cache])

        with open(plain, "rb") as f:
            plain_bytes = f.read()
        with open(cold, "rb") as f:
            cold_bytes = f.read()
        if plain_bytes != cold_bytes:
            fail("cold --trace-cache stats report differs from uncached")

        traces = sorted(
            f for f in os.listdir(cache) if f.endswith(".itrace")
        )
        # fig11 --quick: 6 workloads x (base, opt, opt_ntx) fingerprints.
        if len(traces) != 18:
            fail("expected 18 cached traces, found %d: %s"
                 % (len(traces), traces))
        stamps = {
            f: os.stat(os.path.join(cache, f)).st_mtime_ns
            for f in traces
        }

        run_bench(base + ["--stats-json=" + warm, "--trace-cache=" + cache])
        with open(warm, "rb") as f:
            warm_bytes = f.read()
        if plain_bytes != warm_bytes:
            fail("warm --trace-cache stats report differs from uncached")
        for f in traces:
            if os.stat(os.path.join(cache, f)).st_mtime_ns != stamps[f]:
                fail("cached trace %s was rewritten on the warm run" % f)
        leftovers = sorted(
            f for f in os.listdir(cache) if not f.endswith(".itrace")
        )
        if leftovers:
            fail("stray files in cache dir: %s" % leftovers)
        print(
            "OK: trace cache byte-identical (cold+warm), %d traces reused"
            % len(traces)
        )


def run_file_stems(report):
    """Per-run output file stems, in run order, by the bench's rule
    (JsonReport::runFileStem): the label the first time, then
    <label>-2, <label>-3, ... skipping stems already taken."""
    used = set()
    stems = []
    for r in report["runs"]:
        stem, k = r["label"], 2
        while stem in used:
            stem = "%s-%d" % (r["label"], k)
            k += 1
        used.add(stem)
        stems.append(stem)
    return stems


def check_run_timelines(report, tldir, dump_tool, interval):
    """One parseable stream per run of @p report in @p tldir, with
    exactly ceil(cycles/N) rows each (a zero-cycle run would still get
    one finish row), and no stream shared by two runs."""
    for r, stem in zip(report["runs"], run_file_stems(report)):
        path = os.path.join(tldir, stem + ".poattl")
        if not os.path.exists(path):
            fail("run %r emitted no timeline %s" % (r["label"], path))
        proc = run_bench([dump_tool, "--json", path])
        tl = json.loads(proc.stdout)
        want = max(1, -(-r["cycles"] // interval))
        got = len(tl["samples"])
        if got != want:
            fail(
                "run %r: %d timeline rows, want ceil(%d/%d)=%d"
                % (r["label"], got, r["cycles"], interval, want)
            )
    streams = len(os.listdir(tldir))
    if streams != len(report["runs"]):
        fail("%d timeline streams for %d runs"
             % (streams, len(report["runs"])))


def check_timeline(bench, dump_tool):
    """--timeline=N: report unchanged, streams parse, rows counted."""
    interval = 50000
    with tempfile.TemporaryDirectory() as tmp:
        off = os.path.join(tmp, "off.json")
        on = os.path.join(tmp, "on.json")
        tldir = os.path.join(tmp, "timelines")
        base = [bench, "--scale=5", "--no-tpcc", "--jobs=2"]

        run_bench(base + ["--stats-json=" + off])
        run_bench(
            base
            + [
                "--stats-json=" + on,
                "--timeline=%d" % interval,
                "--timeline-dir=" + tldir,
            ]
        )
        with open(off, "rb") as f:
            off_bytes = f.read()
        with open(on, "rb") as f:
            on_bytes = f.read()
        if off_bytes != on_bytes:
            fail("--timeline changed the stats report")
        with open(on) as f:
            report = json.load(f)
        check_run_timelines(report, tldir, dump_tool, interval)

        # Deep-check one stream: CPI component deltas sum to the cycle
        # delta row by row, and the rows tile the whole run.
        label = report["runs"][0]["label"]
        path = os.path.join(tldir, label + ".poattl")
        proc = run_bench([dump_tool, "--json", path])
        tl = json.loads(proc.stdout)
        names = tl["counters"]
        cyc_at = names.index("core.cycles")
        cpi_at = [
            i for i, n in enumerate(names) if n.startswith("core.cpi.")
        ]
        if len(cpi_at) != len(CPI_COMPONENTS):
            fail("expected %d core.cpi.* series, got %d"
                 % (len(CPI_COMPONENTS), len(cpi_at)))
        total = 0
        for row in tl["samples"]:
            s = sum(row["deltas"][i] for i in cpi_at)
            if s != row["deltas"][cyc_at]:
                fail(
                    "run %r row %d: CPI deltas sum to %d, cycle delta "
                    "%d" % (label, row["end_cycle"], s,
                            row["deltas"][cyc_at])
                )
            total += row["deltas"][cyc_at]
        if total != report["runs"][0]["cycles"]:
            fail(
                "run %r: timeline cycle deltas sum to %d, run took %d"
                % (label, total, report["runs"][0]["cycles"])
            )

        # The Chrome conversion is loadable JSON of counter events plus
        # process_name metadata rows naming the per-core lanes (v2).
        proc = run_bench([dump_tool, "--chrome", path])
        events = json.loads(proc.stdout)
        if not isinstance(events, list) or not events:
            fail("--chrome emitted no events")
        for e in events:
            if e.get("ph") not in ("C", "M") or "args" not in e:
                fail("malformed Chrome counter event: %r" % e)
        if not any(
            e.get("ph") == "M" and e.get("name") == "process_name"
            for e in events
        ):
            fail("--chrome emitted no process_name metadata")

        # Strict CLI: unknown flags exit 2 with a stderr note.
        proc = subprocess.run(
            [dump_tool, "--bogus", path], capture_output=True,
            text=True, timeout=120
        )
        if proc.returncode != 2:
            fail("unknown flag should exit 2, got %d" % proc.returncode)
        if "unknown argument" not in proc.stderr:
            fail("unknown flag not reported on stderr")
        print(
            "OK: --timeline report byte-identical, %d streams with "
            "exact row counts, CPI deltas sum per row, Chrome JSON "
            "loads" % len(report["runs"])
        )

        # --trace=DIR: observer-only, one loadable Chrome trace per run,
        # and the sweep keeps its --jobs.
        trdir = os.path.join(tmp, "traces")
        traced = os.path.join(tmp, "traced.json")
        proc = run_bench(base + ["--stats-json=" + traced,
                                 "--trace=" + trdir])
        with open(traced, "rb") as f:
            if f.read() != off_bytes:
                fail("--trace changed the stats report")
        if "forcing --jobs=1" in proc.stderr + proc.stdout:
            fail("--trace still forces --jobs=1")
        stems = run_file_stems(report)
        if sorted(os.listdir(trdir)) != sorted(s + ".json" for s in stems):
            fail("%d trace files for %d runs"
                 % (len(os.listdir(trdir)), len(stems)))
        events = 0
        for r, stem in zip(report["runs"], stems):
            with open(os.path.join(trdir, stem + ".json")) as f:
                doc = json.load(f)
            names = [e["name"] for e in doc["traceEvents"]]
            if names[:2] != ["begin " + r["label"], "end " + r["label"]]:
                fail("trace %s lacks its run markers: %r"
                     % (stem, names[:2]))
            loads = sum(
                1 for e in doc["traceEvents"] if e["name"] == "nv.load")
            if loads != r["stats"]["mem"]["nv_loads"]:
                fail("trace %s: %d nv.load events, %d nv loads"
                     % (stem, loads, r["stats"]["mem"]["nv_loads"]))
            events += len(names)
        print("OK: --trace report byte-identical, %d Chrome traces "
              "(%d events) load, one per run" % (len(stems), events))


def check_repeated_labels(fig12, dump_tool):
    """fig12 --jobs=4 repeats labels (they omit the walk latency), yet
    every run gets its own parseable timeline."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fig12.json")
        tldir = os.path.join(tmp, "tl")
        run_bench([fig12, "--quick", "--no-tpcc", "--jobs=4",
                   "--stats-json=" + out, "--timeline=50000",
                   "--timeline-dir=" + tldir])
        with open(out) as f:
            report = json.load(f)
        labels = [r["label"] for r in report["runs"]]
        if len(set(labels)) == len(labels):
            fail("fig12 labels no longer repeat; pick another bench")
        check_run_timelines(report, tldir, dump_tool, 50000)
        print("OK: fig12 %d runs over %d labels, one timeline each"
              % (len(labels), len(set(labels))))


BLOCK_REASONS = ["token_wait", "lock_wait", "commit_wait", "idle_done"]


def check_contention(bench, fig9a, report_tool, dump_tool):
    """fig_cores --contention: reports print, invariants hold, tool
    round-trips the saved stats, CLIs are strict."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fig_cores.json")
        base = [bench, "--quick", "--no-tpcc", "--jobs=2"]
        proc = run_bench(base + ["--contention", "--stats-json=" + out])
        for needle in ("critical path:", "group commit:",
                       "blocked cycles", "aborts:"):
            if needle not in proc.stdout:
                fail("--contention output missing %r" % needle)
        with open(out, "rb") as f:
            plain_bytes = f.read()
        report = json.loads(plain_bytes)

        # The observability subtrees hold their invariants in every
        # multi-core run: cp.length positive and bounded by the
        # makespan, and running + the four blocked reasons tile the
        # makespan exactly on every core.
        present = 0
        checked = 0
        for r in report["runs"]:
            s = r["stats"]
            if "length" not in s.get("cp", {}):
                continue  # uninstrumented row: no contention subtrees
            present += 1
            makespan = s["core"]["cycles"]
            cp = s["cp"]["length"]
            if not 0 < cp <= makespan:
                fail("run %r: cp.length %d outside (0, %d]"
                     % (r["label"], cp, makespan))
            # Blocked attribution tiles the makespan on every core of
            # the multi-core rows (single-core rows have no lanes).
            for c in range(s["core"].get("count", 0)):
                lane = s["sched"]["core"][str(c)]
                total = lane["running"] + sum(
                    lane["blocked"][b] for b in BLOCK_REASONS)
                if total != makespan:
                    fail("run %r core %d: running+blocked=%d, "
                         "makespan=%d" % (r["label"], c, total, makespan))
                checked += 1
        if present == 0 or checked == 0:
            fail("no runs carried contention subtrees")

        # contention_report renders text and JSON from the same file.
        txt = os.path.join(tmp, "contention.txt")
        run_bench([report_tool, out, "-o", txt])
        with open(txt) as f:
            text = f.read()
        for needle in ("makespan", "critical path:", "locks:"):
            if needle not in text:
                fail("contention_report text missing %r" % needle)
        proc = run_bench([report_tool, "--json", out])
        rows = json.loads(proc.stdout)
        if not isinstance(rows, list) or len(rows) != present:
            fail("contention_report --json: %r rows, want %d"
                 % (len(rows) if isinstance(rows, list) else rows,
                    present))
        for row in rows:
            if row["critical_path"]["length"] > row["makespan"]:
                fail("tool row %r: cp exceeds makespan" % row["label"])

        # Strict CLIs: unknown flags exit 2, unreadable input exits 1,
        # and a sequential bench accepts --contention with a note.
        proc = subprocess.run([report_tool, "--bogus", out],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 2:
            fail("contention_report unknown flag: exit %d, want 2"
                 % proc.returncode)
        proc = subprocess.run([report_tool, os.path.join(tmp, "nope")],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 1:
            fail("contention_report missing input: exit %d, want 1"
                 % proc.returncode)
        proc = subprocess.run([bench, "--bogus"], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 2 or "unknown argument" not in proc.stderr:
            fail("bench unknown flag: exit %d, want 2" % proc.returncode)
        proc = run_bench([fig9a, "--scale=5", "--no-tpcc", "--jobs=2",
                          "--contention"])
        if "no multi-core runs" not in proc.stdout:
            fail("sequential --contention did not print its note")

        # Per-core timeline lanes are observer-only: byte-identical
        # stats report with the instrumentation on. Every run, the
        # MTPCC setup-only calibration runs included, writes its own
        # stream.
        lanes = os.path.join(tmp, "lanes.json")
        tldir = os.path.join(tmp, "tl")
        run_bench(base + [
            "--stats-json=" + lanes, "--timeline=50000",
            "--timeline-cores", "--timeline-dir=" + tldir,
        ])
        with open(lanes, "rb") as f:
            if f.read() != plain_bytes:
                fail("--timeline-cores changed the stats report")
        check_run_timelines(report, tldir, dump_tool, 50000)
        print("OK: contention reports on %d runs (%d core lanes tiled), "
              "tool round-trips, lanes observer-only, one exact "
              "timeline per run" % (present, checked))


def check_crash_explore(tool):
    """crash_explore: tiny exploration passes; CLI parsing is strict."""
    proc = run_bench([tool, "--workload=LL", "--steps=8", "--jobs=2"])
    if "PASS" not in proc.stdout or "coverage:" not in proc.stdout:
        fail("crash_explore output missing PASS/coverage:\n%s"
             % proc.stdout)

    run_bench([tool, "--repro=LL:8:1:5"])
    run_bench([tool, "--help"])

    proc = subprocess.run(
        [tool, "--bogus-flag"], capture_output=True, text=True,
        timeout=120
    )
    if proc.returncode != 2:
        fail("unknown flag should exit 2, got %d" % proc.returncode)
    if "unknown argument" not in proc.stderr:
        fail("unknown flag not reported on stderr:\n%s" % proc.stderr)

    proc = subprocess.run(
        [tool, "--repro=not-a-repro"], capture_output=True, text=True,
        timeout=120
    )
    if proc.returncode != 2:
        fail("malformed --repro should exit 2, got %d" % proc.returncode)
    print("OK: crash_explore smoke + strict CLI")


def diagnostic(stderr):
    """What a usage error prints on stderr before its usage text."""
    return stderr.split("usage:")[0].strip()


def check_usage_errors(fig9a, fig12, simulate, crash):
    """Malformed input is a usage error (exit 2), never an abort."""
    cases = [
        [fig12, "--jobs=abc"],
        [fig9a, "--scale=x"],
        [fig9a, "--jobs=" + "9" * 20],
        [fig9a, "--seed=-1"],
        [fig9a, "--txns="],
        [fig9a, "--jobs=4x"],
        [fig9a, "--seeds=,"],
        [fig9a, "--timeline=0"],
    ]
    for cmd in cases:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 2:
            fail("%s: exit %d, want 2\nstderr:\n%s"
                 % (" ".join(cmd), proc.returncode, proc.stderr))
        if "options:" not in proc.stderr or not diagnostic(proc.stderr):
            fail("%s: no diagnostic plus usage text" % " ".join(cmd))
    for args, why in [(["NOPE"], "unknown workload"),
                      (["LL", "--bogus"], "unknown argument")]:
        proc = subprocess.run([simulate] + args, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 2 or why not in diagnostic(proc.stderr):
            fail("simulate %s: exit %d, want 2 with %r\nstderr:\n%s"
                 % (" ".join(args), proc.returncode, why, proc.stderr))
        if "usage:" not in proc.stderr:
            fail("simulate %s: no usage text" % " ".join(args))
    # Worker counts past the pools' 256 undo-log slots, or past 32
    # bits, are rejected before any pool exists (not truncated to a
    # small count, not a panic while carving log slots).
    crash_cases = [
        ["--workload=LHT", "--threads=300"],
        ["--workload=LHT", "--threads=4294967298"],
        ["--repro=LHT:4:1:0:t1:n300"],
        ["--repro=LHT:4:1:0:t1:n4294967298"],
    ]
    for args in crash_cases:
        proc = subprocess.run([crash] + args, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 2 or not diagnostic(proc.stderr):
            fail("crash_explore %s: exit %d, want 2 with a diagnostic"
                 "\nstderr:\n%s"
                 % (" ".join(args), proc.returncode, proc.stderr))
        if "usage:" not in proc.stderr:
            fail("crash_explore %s: no usage text" % " ".join(args))
    print("OK: %d malformed inputs exit 2 with a diagnostic"
          % (len(cases) + 2 + len(crash_cases)))


def check_unwritable_outputs(fig12):
    """An output path that names an existing regular file is a run
    error: exit 1 with a diagnostic naming it, never an abort."""
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "F")
        with open(f, "w") as out:
            out.write("not a directory\n")
        base = [fig12, "--quick", "--no-tpcc", "--jobs=2"]
        for args in (["--trace=" + f],
                     ["--timeline=100000", "--timeline-dir=" + f],
                     ["--trace-cache=" + f]):
            proc = subprocess.run(base + args, capture_output=True,
                                  text=True, timeout=600)
            if (proc.returncode != 1 or f not in proc.stderr
                    or "terminate called" in proc.stderr):
                fail("fig12 %s: exit %d, want 1 with a diagnostic naming "
                     "%s\nstderr:\n%s"
                     % (" ".join(args), proc.returncode, f, proc.stderr))
    print("OK: 3 unwritable output paths exit 1 with a diagnostic")


def main():
    if len(sys.argv) not in range(2, 10):
        fail("usage: bench_smoke.py <fig9a-binary> [<fig11-binary>"
             " [<crash_explore-binary> [<timeline_dump-binary>"
             " [<fig_cores-binary> [<contention_report-binary>"
             " [<fig12-binary> [<simulate-binary>]]]]]]]")
    bench = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fig9a.json")
        cmd = [
            bench,
            "--scale=5",
            "--no-tpcc",
            "--jobs=2",
            "--stats-json=" + out,
        ]
        run_bench(cmd)
        with open(out) as f:
            report = json.load(f)

    if report.get("bench") != "fig9a_speedup_inorder":
        fail("unexpected bench name: %r" % report.get("bench"))

    runs = report.get("runs")
    expected = 6 * 3 * 4  # workloads x patterns x (base,pipe,par,ideal)
    if not isinstance(runs, list) or len(runs) != expected:
        fail(
            "expected %d run records, got %s"
            % (expected, len(runs) if isinstance(runs, list) else runs)
        )

    labels = [r.get("label") for r in runs]
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        fail("duplicate run labels: %s" % dupes)

    check_submission_order(labels)

    for r in runs:
        for key in ("config", "cycles", "instructions", "ipc", "stats"):
            if key not in r:
                fail("run %r missing %r" % (r.get("label"), key))
        if r["cycles"] <= 0:
            fail("run %r has no cycles" % r["label"])
        if not isinstance(r["stats"], dict) or not r["stats"]:
            fail("run %r has empty stats" % r["label"])
        if r["config"].get("workload") is None:
            fail("run %r has malformed config" % r["label"])

    summary = report.get("summary")
    if not isinstance(summary, dict) or not summary:
        fail("missing summary block")
    for name, value in summary.items():
        if not isinstance(value, (int, float)):
            fail("summary metric %r is not numeric: %r" % (name, value))

    print(
        "OK: %d runs, %d summary metrics, labels unique and ordered"
        % (len(runs), len(summary))
    )

    check_cpi_and_seeds(bench)

    if len(sys.argv) >= 3:
        check_trace_cache(sys.argv[2])
    if len(sys.argv) >= 4:
        check_crash_explore(sys.argv[3])
    if len(sys.argv) >= 5:
        check_timeline(bench, sys.argv[4])
    if len(sys.argv) >= 7:
        check_contention(sys.argv[5], bench, sys.argv[6], sys.argv[4])
    if len(sys.argv) >= 9:
        check_repeated_labels(sys.argv[7], sys.argv[4])
        check_usage_errors(bench, sys.argv[7], sys.argv[8], sys.argv[3])
        check_unwritable_outputs(sys.argv[7])


if __name__ == "__main__":
    main()
