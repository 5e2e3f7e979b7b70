import copy
import random

import pytest

from conftest import get_pair, get_prestack
from oracles import GradedChain, chain_concat, chain_face, eval_on_chain, pointwise_diff
from prestacks import cli
from prestacks.basecat import Simplex
from prestacks.complexbase import SparseCochain
from prestacks.graded import GMor, GradedCategory, GradedComplex, string_objects, string_simp
from prestacks.lincat import NatTransform
from test_frames import assert_pull_writes_no_block


def test_triv_a2_hom_ranks(triv_a2):
    G = GradedCategory(triv_a2)
    for u in triv_a2.base.arrow_ids:
        assert G.hom_rank(u, "X", "X") == 1
    assert len(triv_a2.base.arrow_ids) == 3


def test_presheaf_mu_is_plain_composition(triv_a3):
    G = GradedCategory(triv_a3)
    b = G.basis_gmor("u12", "X", "X", 0)
    a = G.basis_gmor("u01", "X", "X", 0)
    out = G.mu(b, a)
    assert out.grading == "u02" and out.coords == (triv_a3.field.one,)


def mu_associative_defect(G):
    """First basis triple where mu fails associativity, or None.

    Associativity of mu is equivalent to twist coherence.
    """
    P = G.P
    base = P.base
    for w in base.arrow_ids:
        for v in base.arrow_ids:
            if base.tgt(w) != base.src(v):
                continue
            for u in base.arrow_ids:
                if base.tgt(v) != base.src(u):
                    continue
                for a_obj in G.objects(base.src(w)):
                    for b_obj in G.objects(base.src(v)):
                        for c_obj in G.objects(base.src(u)):
                            for d_obj in G.objects(base.tgt(u)):
                                for fi in range(G.hom_rank(w, a_obj, b_obj)):
                                    f = G.basis_gmor(w, a_obj, b_obj, fi)
                                    for gi in range(G.hom_rank(v, b_obj, c_obj)):
                                        g = G.basis_gmor(v, b_obj, c_obj, gi)
                                        for hi in range(G.hom_rank(u, c_obj, d_obj)):
                                            h = G.basis_gmor(u, c_obj, d_obj, hi)
                                            lhs = G.mu(G.mu(h, g), f)
                                            rhs = G.mu(h, G.mu(g, f))
                                            if lhs != rhs:
                                                return (u, v, w, a_obj, b_obj, c_obj,
                                                        d_obj, fi, gi, hi)
    return None


def identity_gmor(G, u_obj, a):
    fib = G.P.fiber(u_obj)
    return GMor(G.P.base.identities[u_obj], a, a, fib.identity(a).coords)


def unit_defect(G):
    P = G.P
    base = P.base
    for u in base.arrow_ids:
        for a in G.objects(base.src(u)):
            for b in G.objects(base.tgt(u)):
                for i in range(G.hom_rank(u, a, b)):
                    m = G.basis_gmor(u, a, b, i)
                    if G.mu(m, identity_gmor(G, base.src(u), a)) != m:
                        return (u, a, b, i, "right")
                    if G.mu(identity_gmor(G, base.tgt(u), b), m) != m:
                        return (u, a, b, i, "left")
    return None


def test_mu_associativity_iff_coherence(rank2):
    G = GradedCategory(rank2)
    assert mu_associative_defect(G) is None
    assert unit_defect(G) is None
    # corrupt the twist: associativity must fail
    tw = rank2.twists[("g1", "g1")]
    fib = rank2.fiber("*")
    broken = NatTransform(tw.src_functor, tw.tgt_functor,
                          {"X": fib.basis_mor("X", "X", 1),
                           "Y": fib.identity("Y")})
    rank2.twists[("g1", "g1")] = broken
    try:
        assert mu_associative_defect(G) is not None
    finally:
        rank2.twists[("g1", "g1")] = tw


def test_delta_squared_zero_all_small_fixtures():
    for name in ("triv-A2", "scalar-twist-2chain", "scalar-twist-3chain", "dual-pair"):
        _, CU = get_pair(name)
        for n in range(1, 5):
            assert CU.matrix(n + 1).mul(CU.matrix(n)).is_zero()


def test_delta_squared_pointwise_random(twist3):
    _, CU = get_pair("scalar-twist-3chain")
    for n in (1, 2, 3):
        for seed in range(5):
            psi = CU.random_cochain(n - 1, seed)
            assert pointwise_diff(CU, pointwise_diff(CU, psi)).is_zero()


def test_degree_zero_delta_is_commutator_difference(triv_a2):
    _, CU = get_pair("triv-A2")
    P = get_prestack("triv-A2")
    F = P.field
    psi = SparseCochain(CU, 0)
    psi.data[(Simplex("0", ()), ("X",), ())] = [F.parse(2)]
    psi.data[(Simplex("1", ()), ("X",), ())] = [F.parse(5)]
    img = CU.apply_diff(psi)
    # over the arrow u01: a . psi_X(src) - psi_X(tgt) . a = (2 - 5) a
    key = (Simplex("0", ("u01",)), ("X", "X"), (0,))
    assert img.data[key] == [F.parse(-3)]


def _basis_string(P, arrows, btuples):
    G = GradedCategory(P)
    base = P.base
    entries = []
    n = len(arrows)
    for i in range(1, n + 1):
        u = arrows[n - i]
        g = G.basis_gmor(u, "X", "X", btuples[i - 1])
        entries.append(GMor(u, "X", "X", g.coords))
    return tuple(entries)


def test_chain_faces_and_concat(twist2):
    P = get_prestack("scalar-twist-2chain")
    s = _basis_string(P, ("u01", "u12"), (0, 0))
    f0 = chain_face(P, s, 0)
    assert len(f0) == 1 and f0[0].grading == "u01"
    f2 = chain_face(P, s, 2)
    assert len(f2) == 1 and f2[0].grading == "u12"
    f1 = chain_face(P, s, 1)
    assert f1[0].grading == "u02"
    lam = P.field.parse(5)
    assert f1[0].coords == (lam,)  # mu inserts the twist scalar
    # concatenation puts the source-side piece second
    t = _basis_string(P, ("u12",), (0,))
    u = _basis_string(P, ("u01",), (0,))
    cat = chain_concat(t, u)
    assert string_simp(P.base, list(cat)).arrows == ("u01", "u12")
    assert string_objects(list(cat)) == ["X", "X", "X"]


def test_face_of_length_one_rejected(twist2):
    P = get_prestack("scalar-twist-2chain")
    s = _basis_string(P, ("u01",), (0,))
    with pytest.raises(ValueError):
        chain_face(P, s, 0)


def test_face_commutation_relations(twist3):
    P = get_prestack("scalar-twist-3chain")
    rng = random.Random(0)
    for arrows in [("u01", "u12", "u23")]:
        s = _basis_string(P, arrows, (0, 0, 0))
        for j in range(0, 4):
            for i in range(0, j):
                a = chain_face(P, chain_face(P, s, j), i)
                b = chain_face(P, chain_face(P, s, i), j - 1)
                assert a == b


def test_eval_on_chain_single_and_mixed(twist2):
    P = get_prestack("scalar-twist-2chain")
    _, CU = get_pair("scalar-twist-2chain")
    psi = CU.random_cochain(2, 3)
    s = _basis_string(P, ("u01", "u12"), (0, 0))
    chain = GradedChain([(1, s)])
    val = eval_on_chain(CU, psi, chain)
    key = (Simplex("0", ("u01", "u12")), ("X", "X", "X"), (0, 0))
    assert val == psi.get(key)
    # wrong-length strings contribute zero
    t = _basis_string(P, ("u01",), (0,))
    chain.add(7, t)
    assert eval_on_chain(CU, psi, chain) == val


def test_eval_on_chain_linearity(twist2):
    P = get_prestack("scalar-twist-2chain")
    _, CU = get_pair("scalar-twist-2chain")
    psi = CU.random_cochain(2, 8)
    F = P.field
    s = _basis_string(P, ("u01", "u12"), (0, 0))
    c1 = GradedChain([(2, s)])
    c2 = GradedChain([(3, s)])
    both = GradedChain([(5, s)])
    v1 = eval_on_chain(CU, psi, c1)
    v2 = eval_on_chain(CU, psi, c2)
    v = eval_on_chain(CU, psi, both)
    assert v == [F.add(a, b) for a, b in zip(v1, v2)]


def test_chain_cancellation():
    chain = GradedChain()
    e = GMor("u", "X", "X", (1,))
    chain.add(1, (e,))
    chain.add(-1, (e,))
    assert chain.is_zero()


def test_graded_cochain_text_round_trip(twist2):
    from prestacks.io import cochain_from_text, cochain_to_text
    _, CU = get_pair("scalar-twist-2chain")
    psi = CU.random_cochain(2, 11)
    text = cochain_to_text(CU, psi)
    assert "u01 u12" in text  # grading arrows appear in the simplex field
    back = cochain_from_text(CU, 2, text)
    assert back == psi


@pytest.mark.parametrize("name", ["rank2-fiber", "dual-pair", "scalar-twist-3chain"])
def test_block_memo_keys_are_complete_and_blocks_never_written(name, monkeypatch):
    P = get_prestack(name)
    shared = GradedComplex(P)
    # high degrees first: a block memoized in one degree is reused in the next
    for n in (4, 3, 2, 1):
        assert (shared.matrix(n).to_triplet_text()
                == GradedComplex(P).matrix(n).to_triplet_text())
    snapshot = copy.deepcopy(shared._blocks)
    monkeypatch.setattr(cli, "GradedComplex", lambda Q: shared)
    cli.cohomology_table(P, "graded", 3)
    assert shared._blocks == snapshot
    assert_pull_writes_no_block(shared.diff_contributions(4), shared.dim(4), shared.dim(3),
                                shared.field)
    if name == "rank2-fiber":
        assert len(shared.cells(4)) == 8192
        assert len(shared._blocks) < 8192 / 10
