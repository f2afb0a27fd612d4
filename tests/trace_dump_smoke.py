#!/usr/bin/env python3
"""trace_dump's record census must count every record of a trace.

Captures fig_cores' instruction traces at a small scale, then runs
trace_dump on the 4-worker LHT trace: the per-kind counts must sum to
the header's event count and include the lock-grant and op-switch
notes a concurrent run records.

    trace_dump_smoke.py <fig_cores binary> <trace_dump binary>
"""
import glob
import os
import re
import subprocess
import sys
import tempfile


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail("usage: trace_dump_smoke.py <fig_cores> <trace_dump>")
    fig_cores, dump = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        subprocess.run([fig_cores, "--scale=5", "--tpcc-scale=1",
                        "--txns=10", "--jobs=2", "--trace-cache=" + cache],
                       check=True, stdout=subprocess.DEVNULL, timeout=600)
        traces = sorted(glob.glob(os.path.join(cache, "LHT.t4.opt*.itrace")))
        if len(traces) != 1:
            fail("expected one LHT.t4.opt trace, found %d" % len(traces))
        out = subprocess.run([dump, traces[0]], check=True,
                             capture_output=True, text=True,
                             timeout=600).stdout

    header = re.search(r"^events:\s+(\d+)$", out, re.M)
    if not header or "records by kind:" not in out:
        fail("no header event count or census in:\n" + out)
    events = int(header.group(1))
    counts = {}
    for line in out.split("records by kind:", 1)[1].strip().splitlines():
        kind, n = line.split()
        counts[kind] = int(n)
    total = sum(counts.values())
    if total != events:
        fail("census counts %d records, header says %d\n%s"
             % (total, events, out))
    for kind in ("lockAcquired", "opSet"):
        if counts.get(kind, 0) == 0:
            fail("census has no %s records\n%s" % (kind, out))
    print("OK: census counts all %d records in %d kinds"
          % (events, len(counts)))


if __name__ == "__main__":
    main()
