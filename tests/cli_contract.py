#!/usr/bin/env python3
"""The command-line contract of every bench, tool and example.

    cli_contract.py BINARY...

Every binary parses through common/cli.h, so each must:
  - reject an unknown flag and a malformed value with exit status 2,
    a one-line diagnostic plus the usage text on stderr, and nothing on
    stdout (a typo must not write usage text into a piped report);
  - print the usage text on stdout for --help and exit 0.

The per-binary cases below add each tool's own malformed inputs: the
values an unchecked conversion would read as 0 or wrap to a huge
number, reproducer strings whose numbers end early, and extra
arguments a hand-written parser could silently ignore.
"""
import os
import subprocess
import sys
import tempfile

UNKNOWN = (["--bogus-flag"], "unknown argument")
BENCH = [(["--jobs=4x"], "needs a number"),
         (["--jobs=abc"], "needs a number"),
         (["--jobs=" + "9" * 20], "needs a number"),
         (["--seed=-1"], "needs a number")]


def cases(name, report):
    """The (args, diagnostic) usage errors for binary @p name."""
    if name == "stats_diff":
        return [
            (["--tolerance=abc", report, report], "non-negative number"),
            (["--max-report=zz", report, report], "needs a number"),
            (["--tol=runs=x", report, report], "non-negative number"),
            (["--tol=0.5", report, report], "--tol needs PREFIX=T"),
            (["--tolerance=-1", report, report], "non-negative number"),
            ([report], "missing CANDIDATE.json"),
            ([report, report, report], "unexpected argument"),
        ]
    if name == "crash_explore":
        return [
            (["--seed=-1"], "needs a number"),
            (["--jobs=-1"], "needs a number"),
            (["--steps=5x"], "needs a number"),
            (["--threads=4294967298"], "needs a number"),
            (["--workload=LHT", "--threads=300"], "out of range"),
            (["--media-points=1,,2"], "needs a number"),
            (["--evict=5/4"], "bad eviction ratio"),
            (["--evict=1/-4"], "bad eviction ratio"),
            (["--media-kinds=superblock,"], "--media-kinds"),
            (["--media", "--strict"], "--media cannot combine"),
            (["--workload=NOPE"], "unknown"),
            (["--repro=LL:2:1:0abc"], "bad reproducer"),
            (["--repro=LL:2:-1:0"], "bad reproducer"),
            (["--repro=LHT:4:1:0:t-1"], "bad reproducer"),
            (["--repro=LL:5:2:3:e1/-4"], "bad reproducer"),
            (["--repro=LL:5:2:3:e5/4"], "bad reproducer"),
            (["--repro=LL:5:2:3:m1+x"], "bad media fault spec"),
            (["extra"], "unexpected argument"),
        ]
    if name == "trace_dump":
        return [
            (["--head=abc", report], "needs a number"),
            (["--head=", report], "needs a value"),
            ([], "missing FILE.itrace"),
            ([""], "empty argument"),
            ([report, report], "unexpected argument"),
        ]
    if name == "pool_inspect":
        return [
            ([], "missing IMAGE"),
            ([report, "--bogus"], "unknown argument"),
            ([report, "extra"], "unexpected argument"),
            (["--blocks=1", report], "takes no value"),
        ]
    if name == "timeline_dump":
        return [
            (["--csv=1", report], "takes no value"),
            ([report, "-o"], "-o needs a value"),
            ([], "missing FILE.poattl"),
        ]
    if name == "contention_report":
        return [
            (["--run=", report], "--run needs a value"),
            ([report, report], "unexpected argument"),
        ]
    if name == "simulate":
        return [
            (["NOPE"], "unknown workload"),
            (["LL", "--bogus"], "unknown argument"),
            (["LL", "extra"], "unexpected argument"),
        ]
    return BENCH + [(["--scale=x"], "needs a number"),
                    (["--seeds=1,,2"], "needs a number"),
                    (["--seeds=,"], "needs a number"),
                    (["--txns="], "needs a value"),
                    (["--timeline=0"], "nonzero"),
                    (["--stats-json="], "needs a value"),
                    (["--quick=1"], "takes no value")]


def main():
    bins = [os.path.abspath(b) for b in sys.argv[1:]]
    if not bins:
        sys.exit(__doc__)
    failed = checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        with open(report, "w") as f:
            f.write('{"runs": [{"label": "x", "cycles": 1}]}\n')
        for path in bins:
            name = os.path.basename(path)
            for args, why in [UNKNOWN] + cases(name, report):
                p = subprocess.run([path] + args, capture_output=True,
                                   text=True, timeout=120, cwd=tmp)
                checked += 1
                problems = []
                if p.returncode != 2:
                    problems.append("exit %d, want 2" % p.returncode)
                head, sep, usage = p.stderr.partition("usage: " + name)
                if why not in head or len(head.strip().splitlines()) != 1:
                    problems.append("no one-line %r diagnostic before the "
                                    "usage text" % why)
                if not sep or "options:" not in usage:
                    problems.append("no usage text on stderr")
                if p.stdout:
                    problems.append("stdout not empty")
                if problems:
                    failed += 1
                    print("FAIL %s %s: %s\n  stderr: %s" %
                          (name, " ".join(args), "; ".join(problems),
                           p.stderr.strip()[:400]))
            p = subprocess.run([path, "--help"], capture_output=True,
                               text=True, timeout=120, cwd=tmp)
            checked += 1
            if p.returncode != 0 or p.stderr or \
                    not p.stdout.startswith("usage: " + name) or \
                    "\noptions:\n" not in p.stdout:
                failed += 1
                print("FAIL %s --help: exit %d, stderr %r" %
                      (name, p.returncode, p.stderr[:200]))
    print("%d of %d command lines across %d binaries kept the contract"
          % (checked - failed, checked, len(bins)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
