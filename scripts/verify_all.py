#!/usr/bin/env python3
"""Run every verification law against every fixture document."""

import os
import subprocess
import sys

HERE = os.path.dirname(__file__)
FIXDIR = os.path.join(HERE, "..", "fixtures")

PLANS = {
    "d2": ["--degree", "3"],
    "delta2": ["--degree", "3"],
    "fd": ["--degree", "2"],
    "gd": ["--degree", "2"],
    "gf": ["--degree", "2"],
    "homotopy": ["--degree", "2"],
    "paths": ["--degree", "4"],
    "shuffles": [],
}


def main():
    failures = 0
    for fname in sorted(os.listdir(FIXDIR)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(FIXDIR, fname)
        for law, extra in PLANS.items():
            cmd = [sys.executable, "-m", "prestacks.cli", "verify", path,
                   "--law", law] + extra
            env = dict(os.environ)
            env["PYTHONPATH"] = os.path.join(HERE, "..", "src")
            res = subprocess.run(cmd, capture_output=True, text=True, env=env)
            status = "PASS" if res.returncode == 0 else "FAIL"
            print("%-24s %-9s %s" % (fname, law, status))
            if res.returncode != 0:
                failures += 1
                print(res.stdout)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
