#!/usr/bin/env python3
"""Run the scale probes on rank2-fiber, each as a CLI run in a fresh process.

    python3 scripts/scale_probe.py [ROW ...]

The rows are one or two degrees beyond the benchmark's workloads:

    nr      cohomology --complex nr --max-degree 7
    gs      cohomology --complex gs --max-degree 6
    graded  cohomology --complex graded --max-degree 4 --fp 1000003

All three run by default, in that order.  Each child imports the library
from this checkout's ``src`` and has ``PRESTACKS_DEGREE_CAP=8`` in its own
environment, since the default cap of 5 refuses these degrees.  For each row
the script prints the command, the child's table, its wall seconds (process
start to exit) and its peak resident set size (``ru_maxrss`` of that child
alone, from ``os.wait4``).  Standard library only.
"""

import os
import subprocess
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXTURE = os.path.join(ROOT, "fixtures", "rank2-fiber.json")
ROWS = {
    "nr": ["--complex", "nr", "--max-degree", "7"],
    "gs": ["--complex", "gs", "--max-degree", "6"],
    "graded": ["--complex", "graded", "--max-degree", "4", "--fp", "1000003"],
}


def probe(row):
    """Run one row; print its table, wall seconds and peak RSS; return its exit code."""
    argv = [sys.executable, "-m", "prestacks.cli", "cohomology", FIXTURE] + ROWS[row]
    env = dict(os.environ, PRESTACKS_DEGREE_CAP="8")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    print("# %s: prestacks cohomology rank2-fiber %s" % (row, " ".join(ROWS[row])), flush=True)
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    table = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = code = os.waitstatus_to_exitcode(status)
    sys.stdout.write(table)
    # ru_maxrss is in KiB on Linux
    print("%s\twall_s %.2f\tmaxrss_mb %.1f\texit %d" % (row, wall, usage.ru_maxrss / 1024, code))
    return code


def main():
    rows = sys.argv[1:] or list(ROWS)
    unknown = [r for r in rows if r not in ROWS]
    if unknown:
        sys.exit("unknown row %s (have %s)" % (", ".join(unknown), ", ".join(ROWS)))
    return max(probe(row) for row in rows)


if __name__ == "__main__":
    sys.exit(main())
