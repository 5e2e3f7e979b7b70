import random

import pytest

from conftest import get_pair, get_prestack
from prestacks.basecat import Simplex
from prestacks.complexbase import SparseCochain
from prestacks.deform import (DeformationDatum, EquivalenceDatum, build_deformation,
                              classify_h2, deformation_is_cocycle,
                              equivalence_from_cochain, is_nr_coboundary,
                              validate_deformation)
from prestacks.linalg import DualNumbers


def nr_random(C, n, seed):
    rng = random.Random(seed)
    F = C.field
    phi = SparseCochain(C, n)
    for k in C.nr_keys(n):
        phi.data[k] = [F.from_int(rng.randint(-2, 2)) for _ in range(C.value_rank(k))]
    return phi


def test_zero_datum_extends_scalars(twist2):
    P = get_prestack("scalar-twist-2chain")
    C, _ = get_pair("scalar-twist-2chain")
    datum = DeformationDatum(C, SparseCochain(C, 2))
    Q = build_deformation(P, datum)
    assert isinstance(Q.field, DualNumbers)
    assert validate_deformation(Q) is None
    # base parts reproduce the original structure constants
    lam = P.field.parse(5)
    assert Q.twists[("u01", "u12")].at("X").coords[0] == (lam, P.field.zero)


def test_epsilon_part_of_composition_is_m1(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P, C)
    datum = DeformationDatum(C, reps[0])
    Q = build_deformation(P, datum)
    fib = Q.fiber("*")
    for key, vec in datum.cochain.data.items():
        simplex, objects, btuple = key
        if simplex.p != 0:
            continue
        g = fib.basis_mor(objects[1], objects[2], btuple[0])
        f = fib.basis_mor(objects[0], objects[1], btuple[1])
        eps_part = [c[1] for c in fib.compose(g, f).coords]
        assert eps_part == list(vec)


@pytest.mark.parametrize("name", ["dual-pair", "scalar-twist-2chain", "rank2-fiber"])
def test_cocycle_iff_valid_deformation(name):
    P = get_prestack(name)
    C, _ = get_pair(name)
    rng = random.Random(31)
    ker = C.nr_matrix(3).kernel_basis()
    F = C.field
    nr2 = C.nr_keys(2)
    for trial in range(8):
        if ker and trial % 2 == 0:
            vec = [F.zero] * C.nr_matrix(3).cols
            for kv in ker:
                c = F.from_int(rng.randint(-2, 2))
                vec = [F.add(a, F.mul(c, b)) for a, b in zip(vec, kv)]
            phi = C.from_vector(2, vec, keys=nr2)
        else:
            phi = nr_random(C, 2, 100 + trial)
        datum = DeformationDatum(C, phi)
        ok_val = validate_deformation(build_deformation(P, datum)) is None
        ok_coc = deformation_is_cocycle(C, datum)
        assert ok_val == ok_coc


def test_non_cocycle_fails_both_routes(rank2):
    P = get_prestack("rank2-fiber")
    C, _ = get_pair("rank2-fiber")
    found = False
    for seed in range(6):
        phi = nr_random(C, 2, 300 + seed)
        datum = DeformationDatum(C, phi)
        if deformation_is_cocycle(C, datum):
            continue
        found = True
        assert validate_deformation(build_deformation(P, datum)) is not None
    assert found, "no non-cocycle sampled; fixture too degenerate for this test"


def test_h2_representatives_validate(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P, C)
    assert len(reps) == 2
    for rep in reps:
        datum = DeformationDatum(C, rep)
        assert deformation_is_cocycle(C, datum)
        assert validate_deformation(build_deformation(P, datum)) is None
    # pairwise differences are not coboundaries
    diff = reps[0].sub(reps[1])
    assert not is_nr_coboundary(C, diff)


def test_coboundary_shift_gives_equivalence(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P, C)
    d1 = DeformationDatum(C, reps[0])
    F = C.field
    for seed in range(3):
        e_coch = nr_random(C, 1, seed)
        shift = C.apply_diff(e_coch)
        d2_coch = SparseCochain(C, 2, dict(d1.cochain.data))
        for k, vec in shift.data.items():
            d2_coch.add_to(k, [F.neg(v) for v in vec])
        d2 = DeformationDatum(C, d2_coch)
        e = EquivalenceDatum(C, e_coch)
        m_ok, c_ok, detail = equivalence_from_cochain(P, C, e, d1, d2)
        assert m_ok and c_ok, detail


def test_identity_equivalence(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P, C)
    d1 = DeformationDatum(C, reps[0])
    e0 = EquivalenceDatum(C, SparseCochain(C, 1))
    m_ok, c_ok, detail = equivalence_from_cochain(P, C, e0, d1, d1)
    assert m_ok and c_ok


def test_distinct_classes_not_equivalent(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P, C)
    d1 = DeformationDatum(C, reps[0])
    d2 = DeformationDatum(C, reps[1])
    for seed in range(4):
        e = EquivalenceDatum(C, nr_random(C, 1, 50 + seed))
        m_ok, c_ok, _ = equivalence_from_cochain(P, C, e, d1, d2)
        assert not m_ok and not c_ok


def test_both_equivalence_routes_agree_on_random_data(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P, C)
    d1 = DeformationDatum(C, reps[0])
    for seed in range(6):
        e_coch = nr_random(C, 1, 200 + seed)
        # random d2: either the shifted one or an unrelated cocycle
        e = EquivalenceDatum(C, e_coch)
        d2 = DeformationDatum(C, reps[seed % 2])
        m_ok, c_ok, _ = equivalence_from_cochain(P, C, e, d1, d2)
        assert m_ok == c_ok


def _zero_deformation(name):
    """The prestack, its GS complex and the zero deformation datum."""
    P = get_prestack(name)
    C, _ = get_pair(name)
    return P, C, DeformationDatum(C, SparseCochain(C, 2))


def test_tau_at_an_identity_arrow_fails_the_unit_axiom(dual_pair):
    P, C, d0 = _zero_deformation("dual-pair")
    u = P.base.objects[0]
    eid = P.base.identities[u]
    a = P.fiber(u).objects[0]
    key = (Simplex(u, (eid,)), (a,), ())
    assert key in C.cells(1)
    e = EquivalenceDatum(
        C, SparseCochain(C, 1, {key: [C.field.one] * C.value_rank(key)}))
    m_ok, _, detail = equivalence_from_cochain(P, C, e, d0, d0)
    assert not m_ok
    assert detail == "tau at identity arrow %s is not the identity" % eid


def test_g_moving_an_identity_fails_the_functor_validator(dual_pair):
    P, C, d0 = _zero_deformation("dual-pair")
    u = P.base.objects[0]
    fib = P.fiber(u)
    a = fib.objects[0]
    key = (Simplex(u, ()), (a, a), (fib.identity_basis_index(a),))
    assert key in C.cells(1)
    e = EquivalenceDatum(
        C, SparseCochain(C, 1, {key: [C.field.one] * C.value_rank(key)}))
    m_ok, _, detail = equivalence_from_cochain(P, C, e, d0, d0)
    assert not m_ok
    assert detail == "g over %s: functor does not preserve identity at %s" % (u, a)
