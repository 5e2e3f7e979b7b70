"""The benchmark's workloads: seeded inputs, fixed CLI job lists, known answers.

Each workload is a list of ``Job``s.  A job is one ``prestacks`` command line
(the argv a user would type after ``prestacks``), the prestack file its child
process loads during set-up, and the exit code and standard output the seed
code produces for it.  Inputs depend only on the workload seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

FP = 1000003  # the prime of the F_p workload


@dataclass(frozen=True)
class Job:
    argv: tuple          # arguments after ``prestacks``
    input: str           # prestack file loaded and validated during set-up
    expected_rc: int
    expected_stdout: str


def table(dims):
    """The stdout of ``prestacks cohomology`` for a list of dim H^n."""
    return "degree\tdim H^n\n" + "".join("%d\t%d\n" % nd for nd in enumerate(dims))


def passed(law, degree, trials, seed=0):
    """The stdout of a passing ``prestacks verify``."""
    return "law %s\tdegree<=%d\ttrials=%d\tseed=%d\tPASS\n" % (law, degree, trials, seed)


# -- seeded inputs --------------------------------------------------------------


def write_chain_prestack(path, seed):
    """scalar_chain_prestack(4) with coboundary twists from seeded arrow weights.

    The twists lam(f, g) = z(f) z(g) / z(gf) are coherent for any nonzero
    weights z, so the cohomology table does not depend on the seed.
    """
    from prestacks.basecat import chain_poset
    from prestacks.fixtures import coboundary_lambdas, scalar_chain_prestack
    from prestacks.io import save_prestack

    rng = random.Random(seed)
    base = chain_poset(4)
    z = {}
    for a in base.arrow_ids:
        if not base.is_identity(a):
            z[a] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    P = scalar_chain_prestack(4, lam=coboundary_lambdas(base, z), name="gs-chain")
    save_prestack(P, path)


# -- the workloads ------------------------------------------------------------------


RANK2 = "fixtures/rank2-fiber.json"
CHAIN3 = "fixtures/scalar-twist-3chain.json"
DUAL = "fixtures/dual-pair.json"


def gs_chain(workdir, seed):
    """GS assembly and combinatorics on a generated chain; almost no elimination."""
    path = os.path.join(workdir, "gs-chain.json")
    write_chain_prestack(path, seed)
    return [
        Job(("cohomology", path, "--complex", "gs", "--max-degree", "5"),
            path, 0, table([1, 0, 0, 0, 0, 0])),
        Job(("cohomology", path, "--complex", "nr", "--max-degree", "5"),
            path, 0, table([1, 0, 0, 0, 0, 0])),
    ]


# The rank2 workloads run the shipped fixture unchanged, whatever the seed.
# A seeded isomorphic relabelling (which changes pivot order) was dropped: it
# adds spread between seeds on top of a run-to-run noise that already uses
# most of the regression bound.


def rank2_gs_q(workdir, seed):
    """Elimination over Q (Fraction) of the GS differentials of rank2-fiber."""
    return [
        Job(("cohomology", RANK2, "--complex", "gs", "--max-degree", "4"),
            RANK2, 0, table([2, 0, 0, 0, 0])),
    ]


def rank2_graded_fp(workdir, seed):
    """Graded assembly and prime-field elimination on rank2-fiber."""
    return [
        Job(("cohomology", RANK2, "--complex", "graded", "--max-degree", "3",
             "--fp", str(FP)),
            RANK2, 0, table([2, 0, 0, 0])),
    ]


def compare_laws(workdir, seed):
    """The comparison maps F, G, T, matrix products and the H^2 dictionary."""
    out = os.path.join(workdir, "deform")

    def reps(name, n):
        return "".join("representative %d\t%s\n"
                       % (i, os.path.join(out, "%s-h2-rep%d.json" % (name, i)))
                       for i in range(n))

    return [
        Job(("verify", CHAIN3, "--law", "fd", "--degree", "4"),
            CHAIN3, 0, passed("fd", 4, 30)),
        Job(("verify", CHAIN3, "--law", "gd", "--degree", "4"),
            CHAIN3, 0, passed("gd", 4, 30)),
        Job(("verify", CHAIN3, "--law", "homotopy", "--degree", "4"),
            CHAIN3, 0, passed("homotopy", 4, 20)),
        Job(("verify", RANK2, "--law", "homotopy", "--degree", "2"),
            RANK2, 0, passed("homotopy", 2, 20)),
        Job(("verify", RANK2, "--law", "gf", "--degree", "2"),
            RANK2, 0, passed("gf", 2, 30)),
        Job(("verify", RANK2, "--law", "fd", "--degree", "3"),
            RANK2, 0, passed("fd", 3, 30)),
        Job(("verify", RANK2, "--law", "d2", "--degree", "3", "--trials", "20",
             "--seed", str(seed)),
            RANK2, 0, passed("d2", 3, 20, seed)),
        Job(("deform", DUAL, "--out-dir", out),
            DUAL, 0, "dim H^2 (normalized reduced)\t2\n" + reps("dual-pair", 2)),
        Job(("deform", RANK2, "--out-dir", out),
            RANK2, 0, "dim H^2 (normalized reduced)\t0\n"),
    ]


WORKLOADS = {
    "gs-chain": gs_chain,
    "rank2-gs-q": rank2_gs_q,
    "rank2-graded-fp": rank2_graded_fp,
    "compare-laws": compare_laws,
}
