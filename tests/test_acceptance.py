"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic, so every comparison is on-the-nose equality;
there are no tolerances anywhere.
"""

import random
from math import comb, factorial

from conftest import get_nr, get_pair, get_prestack
from oracles import (GradedChain, big_omega_chain, cell_gmors, chain_face, chain_face_sum,
                     delta_chain, dense_rank_of_sparse, grouped, is_nr_coboundary, pointwise_diff,
                     shuffle_filter_count)
from prestacks import combinatorics as cb
from prestacks import fixtures
from prestacks.basecat import chain_poset
from prestacks.compare import Comparison
from prestacks.complexbase import SparseCochain
from prestacks.deform import (build_deformation, classify_h2, deformation_is_cocycle,
                              equivalence_from_cochain)
from prestacks.io import prestack_from_doc, prestack_to_doc
from prestacks.linalg import SparseMatrix

ALL_FIXTURES = ["triv-A2", "triv-A3", "scalar-twist-2chain",
                "scalar-twist-3chain", "rank2-fiber", "dual-pair"]

_cmp_cache = {}


def get_cmp(name):
    if name not in _cmp_cache:
        CG, CU = get_pair(name)
        _cmp_cache[name] = Comparison(CG, CU)
    return _cmp_cache[name]


def report(num, label, ok):
    print("ACCEPTANCE %2d %-28s %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, label)


def long_chain_prestack():
    base = chain_poset(6)
    z = {"u01": 2, "u12": 3, "u23": 5, "u34": 7, "u45": 11, "u56": 13}
    return fixtures.scalar_chain_prestack(
        6, lam=fixtures.coboundary_lambdas(base, z))


def test_01_path_combinatorics():
    P = long_chain_prestack()
    ok = True
    for p in range(2, 7):
        arrows = tuple("u%d%d" % (i, i + 1) for i in range(p))
        paths = cb.enumerate_paths(arrows)
        ok &= len(paths) == factorial(p - 1)
        vals = set()
        for r in paths:
            vals.add(cb.eval_path(P, r).at("X").coords)
        ok &= len(vals) == 1
        if p <= 5:
            pset = set(paths)
            for r in paths:
                for k in range(1, p - 1):
                    f = cb.flip(r, k)
                    ok &= f in pset and cb.flip(f, k) == r and f.sign == -r.sign
    report(1, "path combinatorics", ok)


def test_02_shuffle_counts(monkeypatch):
    monkeypatch.setenv("PRESTACKS_ENUM_CAP", "10")
    ok = len(cb.enumerate_shuffles((2, 1))) == 3
    ok &= len(cb.enumerate_conditioned((2, 2))) == 3
    for m in range(0, 6):
        for n in range(0, 6):
            count = len(cb.enumerate_shuffles((m, n)))
            ok &= count == comb(m + n, m)
            if m + n <= 8:
                ok &= count == shuffle_filter_count((m, n))
    # the largest blocks get the brute-force treatment too
    ok &= len(cb.enumerate_shuffles((5, 4))) == shuffle_filter_count((5, 4))
    ok &= len(cb.enumerate_shuffles((5, 5))) == shuffle_filter_count((5, 5))
    report(2, "shuffle counts", ok)


def _dd_zero(complex_, label_degrees=4, trials=50):
    mats = {n: complex_.matrix(n) for n in range(1, label_degrees + 2)}
    ok = True
    for n in range(1, label_degrees + 1):
        ok &= mats[n + 1].mul(mats[n]).is_zero()
    F = complex_.field
    for d in range(0, label_degrees):
        for t in range(trials):
            phi = complex_.random_cochain(d, seed=7000 + 100 * d + t)
            out = mats[d + 2].matvec(mats[d + 1].matvec(complex_.to_vector(phi)))
            ok &= all(F.is_zero(v) for v in out)
    return ok


def test_03_gs_differential_squares_to_zero():
    ok = True
    for name in ALL_FIXTURES:
        CG, _ = get_pair(name)
        ok &= _dd_zero(CG)
        # the pointwise evaluator agrees with the matrix route
        for d in (1, 2):
            phi = CG.random_cochain(d, seed=31 + d)
            ok &= CG.to_vector(pointwise_diff(CG, phi)) == \
                CG.matrix(d + 1).matvec(CG.to_vector(phi))
    report(3, "d o d = 0 (GS)", ok)


def test_04_graded_differential_squares_to_zero():
    ok = True
    for name in ALL_FIXTURES:
        _, CU = get_pair(name)
        ok &= _dd_zero(CU)
    report(4, "delta o delta = 0 (graded)", ok)


def test_05_chain_maps():
    ok = True
    for name in ALL_FIXTURES:
        cmp_ = get_cmp(name)
        for n in (1, 2, 3):
            ok &= cmp_.matrix_F(n).mul(cmp_.CG.matrix(n)) == \
                cmp_.CU.matrix(n).mul(cmp_.matrix_F(n - 1))
            ok &= cmp_.matrix_G(n).mul(cmp_.CU.matrix(n)) == \
                cmp_.CG.matrix(n).mul(cmp_.matrix_G(n - 1))
    report(5, "F.d = delta.F and G.delta = d.G", ok)


def _nr_inclusion(CG, NR, n):
    keys = NR.cells(n)
    sub_off, sub_dim = NR.index(n)
    full_off, full_dim = CG.index(n)
    row_data = [{} for _ in range(full_dim)]
    for key in keys:
        r = CG.value_rank(key)
        for i in range(r):
            row_data[full_off[key] + i][sub_off[key] + i] = CG.field.one
    return SparseMatrix(full_dim, sub_dim, CG.field, row_data)


def test_06_gf_identity_on_nr():
    ok = True
    for name in ALL_FIXTURES:
        cmp_ = get_cmp(name)
        CG = cmp_.CG
        for n in (0, 1, 2, 3):
            incl = _nr_inclusion(CG, get_nr(name), n)
            gf = cmp_.matrix_G(n).mul(cmp_.matrix_F(n))
            ok &= gf.mul(incl) == incl
    report(6, "GF = 1 on normalized reduced", ok)


def test_07_homotopy():
    plan = [("triv-A2", 3), ("triv-A3", 3), ("scalar-twist-2chain", 3),
            ("scalar-twist-3chain", 3), ("dual-pair", 3), ("rank2-fiber", 2)]
    ok = True
    for name, N in plan:
        cmp_ = get_cmp(name)
        CU = cmp_.CU
        F = CU.field
        for n in range(1, N + 1):
            dim = CU.dim(n)
            minus_one = SparseMatrix(dim, dim, F, [{i: F.neg(F.one)} for i in range(dim)])
            lhs = cmp_.matrix_F(n).mul(cmp_.matrix_G(n)).plus(minus_one)
            rhs = CU.matrix(n).mul(cmp_.matrix_T(n)).plus(
                cmp_.matrix_T(n + 1).mul(CU.matrix(n + 1)))
            ok &= lhs == rhs
    report(7, "FG - 1 = delta T + T delta", ok)


def _betti_all(P, max_degree):
    from prestacks.cli import cohomology_table
    return {c: cohomology_table(P, c, max_degree) for c in ("gs", "nr", "graded")}


def test_08_cohomology_agreement():
    ok = True
    prime = 999999937  # fixed large prime
    for name in ALL_FIXTURES:
        P = get_prestack(name)
        tables = _betti_all(P, 3)
        ok &= tables["gs"] == tables["nr"] == tables["graded"]
        # cross-check over a large prime field
        doc = prestack_to_doc(P)
        doc["ring"] = {"Fp": prime}
        Pp = prestack_from_doc(doc)
        tables_p = _betti_all(Pp, 3)
        ok &= tables_p == tables
        # dense elimination oracle on every matrix of tractable size
        CG, CU = get_pair(name)
        for n in (1, 2, 3, 4):
            for mat in (CG.matrix(n), CU.matrix(n)):
                if mat.rows * mat.cols <= 1_500_000:
                    ok &= mat.rank() == dense_rank_of_sparse(mat)
    report(8, "cohomology agreement gs/nr/graded", ok)


def test_09_deformation_dictionary():
    ok = True
    rng = random.Random(77)
    for name in ("dual-pair", "scalar-twist-2chain", "rank2-fiber"):
        P = get_prestack(name)
        CG, _ = get_pair(name)
        F = CG.field
        reps = classify_h2(P)
        for rep in reps:
            ok &= build_deformation(P, rep).validate() is None
            ok &= deformation_is_cocycle(CG, rep)
        NR = get_nr(name)
        ker = NR.matrix(3).kernel_basis()
        for trial in range(10):
            if ker and trial % 2 == 0:
                vec = [F.zero] * NR.dim(2)
                for kv in ker:
                    c = F.from_int(rng.randint(-2, 2))
                    vec = [F.add(a, F.mul(c, b)) for a, b in zip(vec, kv)]
                phi = NR.from_vector(2, vec)
            else:
                phi = SparseCochain(CG, 2)
                for k in NR.cells(2):
                    phi.data[k] = [F.from_int(rng.randint(-2, 2))
                                   for _ in range(CG.value_rank(k))]
            valid = build_deformation(P, phi).validate() is None
            cocycle = deformation_is_cocycle(CG, phi)
            ok &= valid == cocycle
    # equivalences on the fixture with dim H^2 = 2
    P = get_prestack("dual-pair")
    CG, _ = get_pair("dual-pair")
    F = CG.field
    reps = classify_h2(P)
    ok &= len(reps) >= 2
    d1 = reps[0]
    for seed in range(3):
        e_coch = SparseCochain(CG, 1)
        for k in get_nr("dual-pair").cells(1):
            rng2 = random.Random(900 + seed)
            e_coch.data[k] = [F.from_int(rng2.randint(-2, 2))
                              for _ in range(CG.value_rank(k))]
        shift = CG.apply_diff(e_coch)
        d2 = SparseCochain(CG, 2, dict(d1.data))
        for k, vec in shift.data.items():
            d2.add_to(k, [F.neg(v) for v in vec])
        m_ok, c_ok, _ = equivalence_from_cochain(P, CG, e_coch, d1, d2)
        ok &= m_ok and c_ok
    dB = reps[1]
    ok &= not is_nr_coboundary(get_nr("dual-pair"), reps[0].sub(reps[1]))
    for seed in range(3):
        e_coch = SparseCochain(CG, 1)
        rng3 = random.Random(1200 + seed)
        for k in get_nr("dual-pair").cells(1):
            e_coch.data[k] = [F.from_int(rng3.randint(-2, 2))
                              for _ in range(CG.value_rank(k))]
        m_ok, c_ok, _ = equivalence_from_cochain(P, CG, e_coch, d1, dB)
        ok &= (not m_ok) and (not c_ok)
    report(9, "HH^2 deformation dictionary", ok)


def test_10_presheaf_degeneration():
    ok = True
    rng = random.Random(13)
    for name in ("triv-A2", "triv-A3"):
        CG, _ = get_pair(name)
        F = CG.field
        for n in (1, 2, 3):
            phi = SparseCochain(CG, n)
            for k in get_nr(name).cells(n):
                phi.data[k] = [F.from_int(rng.randint(-2, 2))
                               for _ in range(CG.value_rank(k))]
            full = CG.apply_diff(phi)
            low = SparseCochain(CG, n + 1)
            terms = grouped(CG.diff_contributions(n + 1), CG, n + 1, CG, n)
            for key in CG.cells(n + 1):
                acc = [F.zero] * CG.value_rank(key)
                for in_key, block in terms.get(key, ()):
                    if key[0].p - in_key[0].p >= 2:
                        continue  # drop the higher components
                    vec = phi.data.get(in_key)
                    if vec is None:
                        continue
                    for (r, b), v in block.items():
                        acc[r] = F.add(acc[r], F.mul(v, vec[b]))
                if any(not F.is_zero(v) for v in acc):
                    low.data[key] = acc
            ok &= full == low
    report(10, "presheaf degeneration", ok)


def test_11_chain_level_homotopy_identity():
    from itertools import product as iproduct
    from prestacks.graded import GMor, string_objects, string_simp
    P = get_prestack("scalar-twist-2chain")
    cmp_ = get_cmp("scalar-twist-2chain")
    CU = cmp_.CU
    G = CU.G
    base = P.base
    ok = True
    n = 2
    for simplex in base.nerve(n):
        objs_lists = [G.objects(u) for u in base.objects_along(simplex)]
        for objects in iproduct(*objs_lists):
            ranks = [CU.entry_rank(simplex, objects, i) for i in range(1, n + 1)]
            if any(r == 0 for r in ranks):
                continue
            for btuple in iproduct(*(range(r) for r in ranks)):
                gmors = cell_gmors(CU, (simplex, objects, btuple))
                entries = [G.as_fiber_mor(g) for g in gmors]
                om = big_omega_chain(cmp_, simplex, entries, list(objects))
                ok &= all(len(s) == n + 1 for s in om.terms)
                lhs = GradedChain()
                for i in range(0, n + 1):
                    lhs.add_chain(chain_face_sum(P, om, i), (-1) ** i)
                orig = []
                for i, e in enumerate(entries):
                    u = simplex.arrows[n - 1 - i]
                    orig.append(GMor(u, objects[n - 1 - i],
                                     objects[n - i], e.coords))
                orig = tuple(orig)
                for i in range(0, n):
                    face = chain_face(P, orig, i)
                    fsimp = string_simp(base, list(face))
                    fobjs = string_objects(list(face))
                    fentries = [G.as_fiber_mor(x) for x in face]
                    lhs.add_chain(big_omega_chain(cmp_, fsimp, fentries, fobjs),
                                  (-1) ** i)
                delta = delta_chain(cmp_, simplex, entries, list(objects))
                ok &= lhs == delta
    report(11, "chain-level homotopy identity", ok)
