import random

import pytest

from conftest import get_nr, get_pair, get_prestack
from oracles import dense_rref, entry_dict, is_nr_coboundary
from prestacks.basecat import Simplex
from prestacks.cli import cohomology_table
from prestacks.complexbase import SparseCochain
from prestacks.deform import (build_deformation, check_equivalence_morphism, classify_h2,
                              deformation_is_cocycle, equivalence_from_cochain)
from prestacks.gscomplex import GSComplex, NrComplex
from prestacks.linalg import DualNumbers, PrimeField
from test_generated import carry_prestack, fold_prestack


def nr_random(C, n, seed):
    rng = random.Random(seed)
    F = C.field
    phi = SparseCochain(C, n)
    for k in NrComplex(C.P).cells(n):
        phi.data[k] = [F.from_int(rng.randint(-2, 2)) for _ in range(C.value_rank(k))]
    return phi


def test_zero_datum_extends_scalars(twist2):
    P = get_prestack("scalar-twist-2chain")
    C, _ = get_pair("scalar-twist-2chain")
    Q = build_deformation(P, SparseCochain(C, 2))
    assert isinstance(Q.field, DualNumbers)
    assert Q.validate() is None
    # base parts reproduce the original structure constants
    lam = P.field.parse(5)
    assert Q.twists[("u01", "u12")].at("X").coords[0] == (lam, P.field.zero)


def test_epsilon_part_of_composition_is_m1(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P)
    Q = build_deformation(P, reps[0])
    fib = Q.fiber("*")
    for key, vec in reps[0].data.items():
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
    NR = get_nr(name)
    rng = random.Random(31)
    ker = NR.matrix(3).kernel_basis()
    F = C.field
    for trial in range(8):
        if ker and trial % 2 == 0:
            vec = [F.zero] * NR.dim(2)
            for kv in ker:
                c = F.from_int(rng.randint(-2, 2))
                vec = [F.add(a, F.mul(c, b)) for a, b in zip(vec, kv)]
            phi = NR.from_vector(2, vec)
        else:
            phi = nr_random(C, 2, 100 + trial)
        ok_val = build_deformation(P, phi).validate() is None
        ok_coc = deformation_is_cocycle(C, phi)
        assert ok_val == ok_coc


def test_non_cocycle_fails_both_routes(rank2):
    P = get_prestack("rank2-fiber")
    C, _ = get_pair("rank2-fiber")
    found = False
    for seed in range(6):
        phi = nr_random(C, 2, 300 + seed)
        if deformation_is_cocycle(C, phi):
            continue
        found = True
        assert build_deformation(P, phi).validate() is not None
    assert found, "no non-cocycle sampled; fixture too degenerate for this test"


def test_h2_representatives_validate(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P)
    assert len(reps) == 2
    for rep in reps:
        assert deformation_is_cocycle(C, rep)
        assert build_deformation(P, rep).validate() is None
    # pairwise differences are not coboundaries
    diff = reps[0].sub(reps[1])
    assert not is_nr_coboundary(get_nr("dual-pair"), diff)


H2_INPUTS = {
    "dual-pair": lambda: get_prestack("dual-pair"),
    "fold": fold_prestack,
    **{"carry-3-%d-F3" % c: (lambda c=c: carry_prestack(3, c, PrimeField(3)))
       for c in range(2, 6)},
}


@pytest.mark.parametrize("name", sorted(H2_INPUTS))
def test_h2_representatives_are_the_reduced_complement_basis(name):
    """The representatives are dim H^2 normalized reduced cocycles in pivot
    order, each with pivot 1 at a column that is not a pivot of the image of
    d2, and zero at every image pivot and at every other one's pivot."""
    P = H2_INPUTS[name]()
    C, NR = GSComplex(P), NrComplex(P)
    F = C.field
    reps = classify_h2(P)
    assert len(reps) == cohomology_table(P, "nr", 2)[2] > 0
    d2 = NR.matrix(2)
    _, image_pivots = dense_rref({(j, i): v for (i, j), v in entry_dict(d2).items()},
                                 d2.cols, d2.rows, getattr(F, "p", None))
    vecs = [NR.to_vector(rep) for rep in reps]
    pivots = []
    for rep, vec in zip(reps, vecs):
        assert deformation_is_cocycle(C, rep)
        lead = next(j for j, v in enumerate(vec) if not F.is_zero(v))
        assert F.eq(vec[lead], F.one) and lead not in image_pivots
        pivots.append(lead)
    assert pivots == sorted(pivots)
    for vec, lead in zip(vecs, pivots):
        assert all(F.is_zero(vec[j]) for j in image_pivots)
        assert all(F.is_zero(vec[j]) for j in pivots if j != lead)


def test_coboundary_shift_gives_equivalence(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P)
    d1 = reps[0]
    F = C.field
    for seed in range(3):
        e = nr_random(C, 1, seed)
        shift = C.apply_diff(e)
        d2 = SparseCochain(C, 2, dict(d1.data))
        for k, vec in shift.data.items():
            d2.add_to(k, [F.neg(v) for v in vec])
        m_ok, c_ok, detail = equivalence_from_cochain(P, C, e, d1, d2)
        assert m_ok and c_ok, detail


def test_identity_equivalence(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P)
    e0 = SparseCochain(C, 1)
    m_ok, c_ok, detail = equivalence_from_cochain(P, C, e0, reps[0], reps[0])
    assert m_ok and c_ok


def test_distinct_classes_not_equivalent(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P)
    for seed in range(4):
        e = nr_random(C, 1, 50 + seed)
        m_ok, c_ok, _ = equivalence_from_cochain(P, C, e, reps[0], reps[1])
        assert not m_ok and not c_ok


def test_both_equivalence_routes_agree_on_random_data(dual_pair):
    P = get_prestack("dual-pair")
    C, _ = get_pair("dual-pair")
    reps = classify_h2(P)
    for seed in range(6):
        e = nr_random(C, 1, 200 + seed)
        # random d2: either the shifted one or an unrelated cocycle
        m_ok, c_ok, _ = equivalence_from_cochain(P, C, e, reps[0], reps[seed % 2])
        assert m_ok == c_ok


def _zero_deformation(name):
    """The prestack, its GS complex and the zero deformation cochain."""
    P = get_prestack(name)
    C, _ = get_pair(name)
    return P, C, SparseCochain(C, 2)


def test_tau_at_an_identity_arrow_fails_the_unit_axiom(dual_pair):
    P, C, d0 = _zero_deformation("dual-pair")
    u = P.base.objects[0]
    eid = P.base.identities[u]
    a = P.fiber(u).objects[0]
    key = (Simplex(u, (eid,)), (a,), ())
    assert key in C.cells(1)
    e = SparseCochain(C, 1, {key: [C.field.one] * C.value_rank(key)})
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
    e = SparseCochain(C, 1, {key: [C.field.one] * C.value_rank(key)})
    m_ok, _, detail = equivalence_from_cochain(P, C, e, d0, d0)
    assert not m_ok
    assert detail == "g over %s: functor does not preserve identity at %s" % (u, a)


def test_build_deformation_refuses_a_degree_1_cochain(dual_pair):
    P, C, _ = _zero_deformation("dual-pair")
    with pytest.raises(ValueError, match="degree-2"):
        build_deformation(P, SparseCochain(C, 1))


def test_check_equivalence_morphism_refuses_a_degree_2_cochain(dual_pair):
    P, C, d0 = _zero_deformation("dual-pair")
    Q = build_deformation(P, d0)
    with pytest.raises(ValueError, match="degree-1"):
        check_equivalence_morphism(P, SparseCochain(C, 2), Q, Q)
