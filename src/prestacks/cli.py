"""Batch command-line interface.

Subcommands: validate, cohomology, verify, deform, export-matrix.  All output
is plain text (TSV tables with a stable header); exit codes are 0 for
success, 1 for a failed check or violation, 2 for parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import product

from .combinatorics import EnumerationCapError
from .compare import Comparison
from .deform import (DeformationDatum, build_deformation, classify_h2, cocycle_failure,
                     validate_deformation)
from .graded import GradedComplex
from .gscomplex import GSComplex, NrBasisError, NrComplex
from .io import (ParseError, cochain_from_text, cochain_to_text, load_prestack,
                 save_prestack)
from .linalg import PrimeField, RationalField, SparseMatrix, betti_numbers


def _parse_error(msg):
    print("parse error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _load(path, fp=None):
    try:
        return load_prestack(path, ring=None if fp is None else {"Fp": fp})
    except ParseError as exc:
        _parse_error(exc)


def _env_int(name, default):
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        _parse_error("%s must be an integer, got %r" % (name, raw))


def _violation(P):
    """Print the prestack's first axiom violation; True if there is one."""
    bad = P.validate()
    if bad is not None:
        print("violation: %s" % bad)
    return bad is not None


def _not_a_field(P):
    """True, after one stderr line, if P's scalars are not Q or F_p, which
    elimination and so cohomology and deform need."""
    if isinstance(P.field, (RationalField, PrimeField)):
        return False
    print("ring %s is not a field (Q or F_p)" % P.field.name, file=sys.stderr)
    return True


def cmd_validate(args):
    if _violation(_load(args.file)):
        return 1
    print("OK")
    return 0


def _differential(P, which):
    """n -> the degree-n differential of the chosen complex of P."""
    return {"gs": GSComplex, "nr": NrComplex, "graded": GradedComplex}[which](P).matrix


def cohomology_table(P, which, max_degree):
    d = _differential(P, which)
    diffs = [d(n) for n in range(1, max_degree + 2)]
    # the zero map into degree 0 in front: H^0 = ker d(1)
    return betti_numbers([SparseMatrix(diffs[0].cols, 0, P.field)] + diffs)


def _over_degree_cap(n, slack=0):
    """True, after one stderr line, if degree n exceeds PRESTACKS_DEGREE_CAP + slack."""
    cap = _env_int("PRESTACKS_DEGREE_CAP", 5)
    if n > cap + slack:
        print("degree %d exceeds cap %d" % (n, cap), file=sys.stderr)
        return True
    return False


def cmd_cohomology(args):
    if _over_degree_cap(args.max_degree):
        return 1
    P = _load(args.file, fp=args.fp)
    if _not_a_field(P) or _violation(P):
        return 1
    dims = cohomology_table(P, args.complex, args.max_degree)
    print("degree\tdim H^n")
    for n, h in enumerate(dims):
        print("%d\t%d" % (n, h))
    return 0


def _cell(C, n, i):
    """The degree-n cell of C whose coordinates include i, as (arrows; objects; basis)."""
    for simplex, objects, rank, slots, off in C.frames(n).frames:
        for btuple in product(*slots):
            off += rank
            if off > i:
                return _show((simplex, objects, btuple))


def _show(key):
    """A cell as (arrows; objects; basis), the source object for no arrows."""
    simplex, objects, btuple = key
    return "(%s; %s; %s)" % (" ".join(simplex.arrows) or simplex.source,
                             " ".join(objects), " ".join(map(str, btuple)))


def _same(report, what, n, lhs, rhs, out, inp):
    """Compare two matrices exactly.  On a difference, report its first entry
    (first differing row, least differing column) as a cell of ``out`` and a
    cell of ``inp``, each a (complex, degree) pair, and return False."""
    if lhs == rhs:
        return True
    i, j = lhs.first_difference(rhs)
    report("%s at degree %d: output cell %s, input cell %s"
           % (what, n, _cell(*out, i), _cell(*inp, j)))
    return False


def _square_zero_law(name, C, N, report):
    ok = True
    mats = {n: C.matrix(n) for n in range(1, N + 2)}
    for n in range(1, N + 1):
        prod = mats[n + 1].mul(mats[n])
        ok &= _same(report, "%s.%s != 0" % (name, name), n, prod,
                    SparseMatrix(prod.rows, prod.cols, C.field), (C, n + 1), (C, n - 1))
    return ok


def _law_d2(P, CG, CU, cmp_, N, report):
    return _square_zero_law("d", CG, N, report)


def _law_delta2(P, CG, CU, cmp_, N, report):
    return _square_zero_law("delta", CU, N, report)


def _law_fd(P, CG, CU, cmp_, N, report):
    ok = True
    F_mats = {n: cmp_.matrix_F(n) for n in range(0, N + 1)}
    for n in range(1, N + 1):
        ok &= _same(report, "F.d != delta.F", n, F_mats[n].mul(CG.matrix(n)),
                    CU.matrix(n).mul(F_mats[n - 1]), (CU, n), (CG, n - 1))
    return ok


def _law_gd(P, CG, CU, cmp_, N, report):
    ok = True
    G_mats = {n: cmp_.matrix_G(n) for n in range(0, N + 1)}
    for n in range(1, N + 1):
        ok &= _same(report, "G.delta != d.G", n, G_mats[n].mul(CU.matrix(n)),
                    CG.matrix(n).mul(G_mats[n - 1]), (CG, n), (CU, n - 1))
    return ok


def _law_gf(P, CG, CU, cmp_, N, report):
    """GF is the identity on the columns of the nr basis vectors."""
    ok = True
    F = P.field
    nr = NrComplex(P)
    for n in range(0, N + 1):
        cols = cmp_.matrix_G(n).mul(cmp_.matrix_F(n)).col_lists()
        offsets = CG.index(n)[0]
        for key in nr.cells(n):
            for j in range(offsets[key], offsets[key] + CG.value_rank(key)):
                if set(cols[j]) != {j} or not F.eq(cols[j][j], F.one):
                    report("GF != 1 on nr basis vector %r at degree %d" % (key, n))
                    ok = False
    return ok


def _law_homotopy(P, CG, CU, cmp_, N, report):
    ok = True
    F = P.field
    # T and delta are needed at n and n + 1; each is built once.
    T_mats = {n: cmp_.matrix_T(n) for n in range(1, N + 2)}
    delta_mats = {n: CU.matrix(n) for n in range(1, N + 2)}
    for n in range(1, N + 1):
        dim = CU.dim(n)
        minus_one = SparseMatrix(dim, dim, F, [{i: F.neg(F.one)} for i in range(dim)])
        lhs = cmp_.matrix_F(n).mul(cmp_.matrix_G(n)).plus(minus_one)
        rhs = delta_mats[n].mul(T_mats[n]).plus(T_mats[n + 1].mul(delta_mats[n + 1]))
        ok &= _same(report, "FG - 1 != delta T + T delta", n, lhs, rhs, (CU, n), (CU, n))
    return ok


def _law_paths(P, CG, CU, cmp_, N, report):
    from math import factorial
    from .combinatorics import enumerate_paths, eval_path, flip
    ok = True
    base = P.base
    for p in range(2, min(N, 6) + 1):
        for simplex in base.nerve(p)[:40]:
            paths = enumerate_paths(simplex.arrows)
            if len(paths) != factorial(p - 1):
                report("|P(sigma)| != (p-1)! at %r" % (simplex,))
                ok = False
            vals = None
            for r in paths:
                t = eval_path(P, r)
                comp = {a: t.at(a).coords for a in t.components}
                if vals is None:
                    vals = comp
                elif vals != comp:
                    report("path evaluation differs on %r" % (simplex,))
                    ok = False
                if p >= 3:
                    for k in range(1, p - 1):
                        if flip(flip(r, k), k) != r or flip(r, k).sign != -r.sign:
                            report("flip law fails on %r" % (simplex,))
                            ok = False
    return ok


def _law_shuffles(P, CG, CU, cmp_, N, report):
    from math import comb
    from .combinatorics import brute_force_shuffles, enumerate_conditioned, enumerate_shuffles
    ok = True
    for m in range(0, 5):
        for n in range(0, 5):
            got = len(enumerate_shuffles((m, n)))
            if got != comb(m + n, m):
                report("|S_(%d,%d)| = %d != C(m+n,m)" % (m, n, got))
                ok = False
            if m + n <= 6 and got != len(brute_force_shuffles((m, n))):
                report("shuffle enumeration disagrees with brute force at (%d,%d)" % (m, n))
                ok = False
    if len(enumerate_shuffles((2, 1))) != 3:
        report("|S_(2,1)| != 3")
        ok = False
    if len(enumerate_conditioned((2, 2))) != 3:
        report("conditioned (2,2) count != 3")
        ok = False
    return ok


# law -> (function, default degree, default trials).  Every law is checked on
# matrices, without random trials; the trial count and --seed are only echoed
# in the PASS line, whose form perfbench's known answers pin.
LAWS = {
    "d2": (_law_d2, 4, 50),
    "delta2": (_law_delta2, 4, 50),
    "fd": (_law_fd, 3, 30),
    "gd": (_law_gd, 3, 30),
    "gf": (_law_gf, 3, 30),
    "homotopy": (_law_homotopy, 3, 20),
    "paths": (_law_paths, 5, 1),
    "shuffles": (_law_shuffles, 5, 1),
}


def cmd_verify(args):
    fn, default_n, default_t = LAWS[args.law]
    N = args.degree if args.degree is not None else default_n
    if _over_degree_cap(N):
        return 1
    P = _load(args.file)
    if _violation(P):
        return 1
    T = args.trials if args.trials is not None else default_t
    CG, CU = GSComplex(P), GradedComplex(P)
    cmp_ = Comparison(CG, CU)
    failures = []
    ok = fn(P, CG, CU, cmp_, N, failures.append)
    if ok:
        print("law %s\tdegree<=%d\ttrials=%d\tseed=%d\tPASS" % (args.law, N, T, args.seed))
        return 0
    print("law %s\tFAIL" % args.law)
    for f in failures:
        print("  " + f)
    return 1


def cmd_deform(args):
    P = _load(args.file)
    if _not_a_field(P) or _violation(P):
        return 1
    if args.from_cocycle:
        CG = GSComplex(P)
        try:
            with open(args.from_cocycle) as fh:
                phi = cochain_from_text(CG, 2, fh.read())
        except (OSError, ValueError, ParseError) as exc:
            _parse_error(exc)
        datum = DeformationDatum(CG, phi)
        failure = cocycle_failure(CG, datum)
        if failure is not None:
            print("%s at %s" % (failure[0], _show(failure[1])))
            return 1
        Q = build_deformation(P, datum)
        bad = validate_deformation(Q)
        if bad is not None:
            print("deformed prestack fails validation: %s" % bad)
            return 1
        out = args.out or (os.path.splitext(args.file)[0] + ".deformed.json")
        try:
            save_prestack(Q, out)
        except OSError as exc:
            _parse_error(exc)
        print("deformed prestack written to %s" % out)
        return 0
    outdir = args.out_dir or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        _parse_error(exc)
    reps = classify_h2(P)
    print("dim H^2 (normalized reduced)\t%d" % len(reps))
    for i, rep in enumerate(reps):
        datum = DeformationDatum(rep.complex, rep)
        Q = build_deformation(P, datum)
        bad = validate_deformation(Q)
        if bad is not None:
            print("representative %d fails validation: %s" % (i, bad))
            return 1
        path = os.path.join(outdir, "%s-h2-rep%d.json" % (P.name, i))
        cpath = os.path.join(outdir, "%s-h2-rep%d.cochain" % (P.name, i))
        try:
            save_prestack(Q, path)
            with open(cpath, "w") as fh:
                fh.write(cochain_to_text(rep.complex, rep))
        except OSError as exc:
            _parse_error(exc)
        print("representative %d\t%s" % (i, path))
    return 0


def cmd_export_matrix(args):
    # d(cap + 1) is the largest differential that cohomology --max-degree cap builds
    if _over_degree_cap(args.degree, slack=1):
        return 1
    P = _load(args.file)
    if _not_a_field(P) or _violation(P):
        return 1
    mat = _differential(P, args.complex)(args.degree)
    with open(args.out, "w") as fh:
        fh.write(mat.to_triplet_text())
    print("wrote %dx%d matrix with %d entries to %s"
          % (mat.rows, mat.cols, mat.nnz, args.out))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="prestacks",
                                 description="Exact cohomology of prestacks")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check the prestack axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cohomology", help="print a dim H^n table")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--complex", choices=["gs", "nr", "graded"], default="gs")
    p.add_argument("--fp", type=int, default=None,
                   help="reinterpret the input over F_p")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("file")
    p.add_argument("--law", choices=sorted(LAWS), required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("deform", help="classify H^2 or validate a cocycle")
    p.add_argument("file")
    p.add_argument("--from-cocycle", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("export-matrix", help="write a differential in triplet form")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--complex", choices=["gs", "nr", "graded"], default="gs")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_matrix)

    args = ap.parse_args(argv)
    for name in ("max_degree", "degree", "trials"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            _parse_error("--%s must be >= 0, got %d" % (name.replace("_", "-"), value))
    # PRESTACKS_ENUM_CAP is read deep inside enumeration; reject it up front.
    _env_int("PRESTACKS_ENUM_CAP", None)
    if getattr(args, "fp", None) is not None:  # a bad modulus is the flag's fault
        try:
            PrimeField(args.fp)
        except ValueError as exc:
            _parse_error("--fp %d: %s" % (args.fp, exc))
    try:
        return args.fn(args)
    except (EnumerationCapError, NrBasisError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
