#!/usr/bin/env python3
"""pool_inspect must reject malformed pool images with a diagnostic and
exit status 1 -- never an abort.

    pool_inspect_smoke.py <pool_inspect binary>
"""
import os
import struct
import subprocess
import sys
import tempfile

MAGIC = 0x504F41545F504F4C  # PoolHeader::kMagic, "POAT_POL"


def header(pool_size):
    """A PoolHeader with a valid magic (and a crc that does not match)."""
    return struct.pack("<QIIQIIIIIIII", MAGIC, 2, 1, pool_size, 0, 0,
                       256, 4096, 4352, 65536, 0, 0)


def main():
    inspect = sys.argv[1]
    cases = {
        "valid-magic header in a 100-byte file": header(100) + bytes(44),
        "valid-magic header in a truncated image": header(1 << 20) + bytes(8136),
        "garbage": b"not a pool image" + bytes(4080),
        "empty file": b"",
    }
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in cases.items():
            path = os.path.join(tmp, "image.pool")
            with open(path, "wb") as f:
                f.write(data)
            p = subprocess.run([inspect, path, "--blocks"],
                               capture_output=True, text=True)
            said = (p.stdout + p.stderr).strip().splitlines()
            if p.returncode != 1 or not said:
                print(f"FAIL {name}: exit {p.returncode}, output {said[-1:]}")
                failed += 1
            else:
                print(f"ok   {name}: {said[-1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
