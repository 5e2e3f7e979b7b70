#!/usr/bin/env python3
"""Write every exported file of the shipped fixtures and print their hashes.

    python3 scripts/export_manifest.py OUTDIR

For each fixture under fixtures/ this runs ``export-matrix`` for the gs and
nr complexes in degrees 1-5 and the graded complex in degrees 1-4 (graded d5
of rank2-fiber is 131072x16384), writes the comparison maps F_n and G_n for
n = 0-4 and the homotopy T_n for n = 1-4 in the same triplet form, and runs
``deform --out-dir``, all writing into OUTDIR.  It then prints one
``sha256  path`` line per file, path relative to OUTDIR, sorted by path.
Two checkouts produce byte-identical outputs exactly when their manifests
are equal, so a change that must not alter any output is checked with
``diff`` of the two manifests.
"""

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from prestacks.cli import main as cli_main  # noqa: E402
from prestacks.compare import Comparison  # noqa: E402
from prestacks.graded import GradedComplex  # noqa: E402
from prestacks.gscomplex import GSComplex  # noqa: E402
from prestacks.io import load_prestack  # noqa: E402

FIXDIR = os.path.join(ROOT, "fixtures")
DEGREES = {"gs": (1, 2, 3, 4, 5), "nr": (1, 2, 3, 4, 5), "graded": (1, 2, 3, 4)}
MAP_DEGREES = {"F": (0, 1, 2, 3, 4), "G": (0, 1, 2, 3, 4), "T": (1, 2, 3, 4)}


def run(argv):
    """One CLI command with its stdout swallowed; exit on a nonzero code."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        sys.exit("prestacks %s exited %s" % (" ".join(argv), rc))


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/export_manifest.py OUTDIR")
    outdir = sys.argv[1]
    os.makedirs(outdir, exist_ok=True)
    for fname in sorted(os.listdir(FIXDIR)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(FIXDIR, fname)
        name = fname[: -len(".json")]
        for which, degrees in DEGREES.items():
            for n in degrees:
                out = os.path.join(outdir, "%s-%s-d%d.txt" % (name, which, n))
                run(["export-matrix", path, "--degree", str(n), "--complex", which,
                     "--out", out])
        write_maps(path, os.path.join(outdir, name))
        run(["deform", path, "--out-dir", os.path.join(outdir, name + "-deform")])
    for rel in sorted(_files(outdir)):
        with open(os.path.join(outdir, rel), "rb") as fh:
            print("%s  %s" % (hashlib.sha256(fh.read()).hexdigest(), rel))


def write_maps(path, stem):
    """F_n, G_n and T_n of one prestack, each to ``stem-<map><n>.txt``."""
    P = load_prestack(path)
    cmp_ = Comparison(GSComplex(P), GradedComplex(P))
    build = {"F": cmp_.matrix_F, "G": cmp_.matrix_G, "T": cmp_.matrix_T}
    for which, degrees in MAP_DEGREES.items():
        for n in degrees:
            with open("%s-%s%d.txt" % (stem, which, n), "w") as fh:
                fh.write(build[which](n).to_triplet_text())


def _files(outdir):
    for top, _, names in os.walk(outdir):
        for nm in names:
            yield os.path.relpath(os.path.join(top, nm), outdir)


if __name__ == "__main__":
    main()
