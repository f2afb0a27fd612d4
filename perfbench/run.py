#!/usr/bin/env python3
"""Entry point of poat's host-time benchmark (see perfbench/README.md).

Builds this package (the poat library from ../src plus the perfbench
driver binary, Release) into .bench_build/perfbench, then runs one
workload and relays its output. The last stdout line is the result
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload replay_sweep --seed 1 \
        --seconds 10 --trace 0

Build output goes to stderr. Exits 2 if the poat sources are missing.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay_sweep", "live_patterns", "crash_explore")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build; returns the driver binary's path."""
    bdir = build_dir()
    cmds = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release", *gen])
    cmds.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in cmds:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as e:
            fail(f"build failed: {e}", 1)
    return bdir / "perfbench"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (subprocess.SubprocessError, OSError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_hash():
    """sha256 over every file of src/ and perfbench/ (path + bytes)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="self-check: corrupt one output before checking")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"poat sources not found under {ROOT / 'src'}")

    binary = build()
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", str(ROOT / ".perfbench"),
           "--commit", git_commit(), "--source-hash", source_hash()]
    if a.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
