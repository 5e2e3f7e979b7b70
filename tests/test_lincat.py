import random

import pytest

from conftest import get_prestack
from oracles import whisker
from prestacks.lincat import (Mor, NatTransform, compose_functors, diagonal_bimodule,
                              identity_functor, identity_transform)


@pytest.fixture
def parity():
    return get_prestack("rank2-fiber").fiber("*")


def test_compose_with_identity(parity):
    for a in parity.objects:
        for b in parity.objects:
            for i in range(parity.rank(a, b)):
                f = parity.basis_mor(a, b, i)
                assert parity.compose(f, parity.identity(a)) == f
                assert parity.compose(parity.identity(b), f) == f


def test_one_object_scalar_fiber_is_multiplication(triv_a2):
    fib = triv_a2.fiber("0")
    F = fib.field
    f = Mor(fib, "X", "X", (F.parse(3),))
    g = Mor(fib, "X", "X", (F.parse(5),))
    assert fib.compose(g, f).coords == (F.parse(15),)


def test_random_triple_associativity(parity):
    rng = random.Random(1)
    F = parity.field
    objs = parity.objects
    for _ in range(20):
        a, b, c, d = (rng.choice(objs) for _ in range(4))
        f = Mor(parity, a, b, tuple(F.from_int(rng.randint(-3, 3)) for _ in range(2)))
        g = Mor(parity, b, c, tuple(F.from_int(rng.randint(-3, 3)) for _ in range(2)))
        h = Mor(parity, c, d, tuple(F.from_int(rng.randint(-3, 3)) for _ in range(2)))
        assert parity.compose(parity.compose(h, g), f) == \
            parity.compose(h, parity.compose(g, f))


def test_identity_functor_fixes_morphisms(parity):
    ident = identity_functor(parity)
    for a in parity.objects:
        for b in parity.objects:
            for i in range(parity.rank(a, b)):
                f = parity.basis_mor(a, b, i)
                assert ident.apply(f) == f


def test_functor_composition_evaluation_order(rank2):
    fib = rank2.fiber("*")
    swap = rank2.restriction("g1")
    comp = compose_functors(swap, swap)
    rng = random.Random(2)
    F = fib.field
    for _ in range(10):
        a, b = rng.choice(fib.objects), rng.choice(fib.objects)
        f = Mor(fib, a, b, tuple(F.from_int(rng.randint(-2, 2)) for _ in range(2)))
        assert comp.apply(f) == swap.apply(swap.apply(f))


def test_twisted_fixture_restriction_objects(twist3):
    fun = twist3.restriction("u01")
    assert all(fun.on_obj(a) == a for a in fun.src_cat.objects)


def test_whisker_by_identities_returns_components(rank2):
    fib = rank2.fiber("*")
    tw = rank2.twist("g1", "g1")
    ident = identity_functor(fib)
    w = whisker([ident], tw, [ident])
    for a in fib.objects:
        assert w.at(a) == tw.at(a)


def test_whiskered_transform_matches_epsilon_route(rank2):
    # eps built by whiskering equals the prestack's direct construction
    base = rank2.base
    s = base.simplex(("g1", "g1", "g1"))
    tw = rank2.twist("g1", "g1")
    # middle merge of the chain: pre-whisker by the trailing arrow, none after
    eps1 = rank2.epsilon_sigma_i(s, 1)
    w1 = whisker([rank2.restriction("g1")], tw, [])
    # final merge: post-whisker by the leading arrow
    eps2 = rank2.epsilon_sigma_i(s, 2)
    w2 = whisker([], tw, [rank2.restriction("g1")])
    for a in rank2.fiber("*").objects:
        assert eps1.at(a) == w1.at(a)
        assert eps2.at(a) == w2.at(a)
    assert w1.validate() is None and w2.validate() is None


def test_non_natural_transform_detected(rank2):
    fib = rank2.fiber("*")
    ident = identity_functor(fib)
    F = fib.field
    comps = {"X": fib.basis_mor("X", "X", 1), "Y": fib.identity("Y")}
    t = NatTransform(ident, ident, comps)
    assert t.validate() is not None


def test_validators_on_fixture_categories():
    for name in ("triv-A2", "scalar-twist-3chain", "rank2-fiber", "dual-pair"):
        P = get_prestack(name)
        for u in P.base.objects:
            assert P.fiber(u).validate() is None
        for a in P.base.arrow_ids:
            assert P.restriction(a).validate() is None


def test_functor_with_corrupted_entry_fails(rank2):
    fib = rank2.fiber("*")
    good = rank2.restriction("g1")
    mats = {k: tuple(v) for k, v in good.mats.items()}
    F = fib.field
    cols = list(mats[("X", "Y")])
    cols[0] = (F.from_int(1), F.from_int(1))  # no longer multiplicative
    mats[("X", "Y")] = tuple(cols)
    from prestacks.lincat import LinFunctor
    bad = LinFunctor(fib, fib, good.obj_map, mats)
    assert bad.validate() is not None


def test_diagonal_bimodule_validates(twist3, rank2, dual_pair):
    for P in (twist3, rank2, dual_pair):
        M = diagonal_bimodule(P)
        assert M.validate() is None


def test_diagonal_bimodule_restrictions_are_functor_matrices(triv_a2):
    M = diagonal_bimodule(triv_a2)
    fun = triv_a2.restriction("u01")
    fib = triv_a2.fiber("1")
    for b in fib.objects:
        for a in fib.objects:
            for i in range(fib.rank(b, a)):
                vec = M.zero("1", b, a)
                vec[i] = triv_a2.field.one
                out = M.restrict("u01", b, a, vec)
                assert tuple(out) == fun.apply(fib.basis_mor(b, a, i)).coords


def test_diagonal_bimodule_hom_ranks(dual_pair):
    M = diagonal_bimodule(dual_pair)
    fib = dual_pair.fiber("*")
    for b in fib.objects:
        for a in fib.objects:
            assert M.rank("*", b, a) == fib.rank(b, a)


def test_twist_naturality_drives_bimodule_coherence(rank2):
    # restriction coherence of the diagonal bimodule is exactly naturality of
    # the twist; a non-natural replacement must be caught
    from prestacks.lincat import NatTransform
    P = rank2
    M = diagonal_bimodule(P)
    assert M.validate() is None
    tw = P.twists[("g1", "g1")]
    fib = P.fiber("*")
    broken = NatTransform(tw.src_functor, tw.tgt_functor,
                          {"X": fib.basis_mor("X", "X", 1),
                           "Y": fib.identity("Y")})
    saved = P.twists[("g1", "g1")]
    P.twists[("g1", "g1")] = broken
    try:
        M2 = diagonal_bimodule(P)
        assert M2.validate() is not None
    finally:
        P.twists[("g1", "g1")] = saved


def test_mor_inverse(parity):
    odd = parity.basis_mor("X", "X", 1)
    inv = parity.invert(odd)
    assert inv is not None
    assert parity.compose(inv, odd) == parity.identity("X")
    zero = parity.zero_mor("X", "X")
    assert parity.invert(zero) is None
