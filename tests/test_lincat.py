import random
from itertools import product

import pytest

from conftest import get_prestack
from oracles import left_act, restrict, right_act, whisker
from prestacks.lincat import (LinearCategory, LinFunctor, Mor, NatTransform, compose_functors,
                              identity_functor)


def zero_mor(cat, a, b):
    return Mor(cat, a, b, tuple([cat.field.zero] * cat.rank(a, b)))


def columns(F, block, rows, cols):
    """The block as a list of columns."""
    return [[block.get((r, b), F.zero) for r in range(rows)] for b in range(cols)]


def units(F, n):
    return [[F.one if i == b else F.zero for i in range(n)] for b in range(n)]


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
    # the same matrices given as a plain functor, as a file would give them
    plain = LinFunctor(parity, parity, ident.obj_map, ident.mats)
    assert ident.is_identity and not plain.is_identity
    for a in parity.objects:
        for b in parity.objects:
            for i in range(parity.rank(a, b)):
                f = parity.basis_mor(a, b, i)
                assert ident.apply(f) == f == plain.apply(f)
    other = get_prestack("dual-pair").fiber("*")
    with pytest.raises(ValueError, match="foreign morphism"):
        ident.apply(other.identity(other.objects[0]))


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
    bad = LinFunctor(fib, fib, good.obj_map, mats)
    assert bad.validate() is not None


def test_diagonal_bimodule_restrictions_are_functor_matrices(triv_a2):
    # the restriction maps of the coefficients A are the matrices of the
    # restriction functors, column by column
    fun = triv_a2.restriction("u01")
    fib = triv_a2.fiber("1")
    for b in fib.objects:
        for a in fib.objects:
            rows = fun.tgt_cat.rank(fun.on_obj(b), fun.on_obj(a))
            out = columns(triv_a2.field, fun.block(b, a), rows, fib.rank(b, a))
            for i in range(fib.rank(b, a)):
                assert tuple(out[i]) == fun.apply(fib.basis_mor(b, a, i)).coords


@pytest.mark.parametrize("name", ["dual-pair", "rank2-fiber", "scalar-twist-3chain"])
def test_blocks_equal_oracle_actions(name):
    # every column of a block is the action on a unit vector, computed by
    # composing morphisms and applying functors
    P = get_prestack(name)
    F = P.field
    for U in P.base.objects:
        cat = P.fiber(U)
        for b, a, a2 in product(cat.objects, repeat=3):
            n = cat.rank(b, a)
            for fi in range(cat.rank(a, a2)):
                f = cat.basis_mor(a, a2, fi)
                got = columns(F, cat.left_block(b, f), cat.rank(b, a2), n)
                assert got == [left_act(cat, b, f, e) for e in units(F, n)]
            # right action by g: a2 -> b, from hom(b, a) to hom(a2, a)
            for gi in range(cat.rank(a2, b)):
                g = cat.basis_mor(a2, b, gi)
                got = columns(F, cat.right_block(a, g), cat.rank(a2, a), n)
                assert got == [right_act(cat, a, e, b, g) for e in units(F, n)]
    # the fixtures' restriction matrices are diagonal, so every 2x2 matrix is
    # replaced by a skewed one to expose a transposed block
    skew = ((F.one, F.from_int(2)), (F.from_int(3), F.from_int(4)))
    for u in P.base.arrow_ids:
        fu = P.restriction(u)
        mats = {k: skew if len(cols) == 2 and len(cols[0]) == 2 else cols
                for k, cols in fu.mats.items()}
        fu = LinFunctor(fu.src_cat, fu.tgt_cat, fu.obj_map, mats)
        for b, a in product(fu.src_cat.objects, repeat=2):
            n = fu.src_cat.rank(b, a)
            rows = fu.tgt_cat.rank(fu.on_obj(b), fu.on_obj(a))
            got = columns(F, fu.block(b, a), rows, n)
            assert got == [restrict(fu, b, a, e) for e in units(F, n)]


@pytest.mark.parametrize("name,key,entry,value,message", [
    # basis order on End(X) and End(Y) is (1, x) and (1, y) in dual-pair and
    # (ev, od) in rank2-fiber; an entry is (index of g, index of f) in g o f
    ("dual-pair", ("X", "X", "X"), (0, 0), {0: 1, 1: 1},  # 1 o 1 = 1 + x
     "right unit fails at X->X basis 0"),
    ("dual-pair", ("Y", "Y", "Y"), (0, 1), {0: 1},  # 1 o y = 1
     "left unit fails at Y->Y basis 1"),
    ("rank2-fiber", ("X", "X", "X"), (1, 1), {0: 2},  # od o od = 2 ev
     "associativity fails at X,X,X,Y (1,1,0)"),
], ids=["right-unit", "left-unit", "associativity"])
def test_fiber_validate_names_the_failing_axiom(name, key, entry, value, message):
    cat = get_prestack(name).fiber("*")
    F = cat.field
    assert cat.validate() is None
    comp = {k: dict(table) for k, table in cat.comp.items()}
    comp[key][entry] = {k: F.from_int(v) for k, v in value.items()}
    bad = LinearCategory(cat.name, F, cat.objects, cat._hom, comp, cat.identity_coords)
    assert bad.validate() == message


def test_twist_naturality_drives_bimodule_coherence(rank2):
    # restriction coherence of the coefficients A is exactly naturality of
    # the twist, which Prestack.validate checks; a non-natural replacement
    # must be caught
    P = rank2
    assert P.validate() is None
    tw = P.twists[("g1", "g1")]
    fib = P.fiber("*")
    broken = NatTransform(tw.src_functor, tw.tgt_functor,
                          {"X": fib.basis_mor("X", "X", 1),
                           "Y": fib.identity("Y")})
    P.twists[("g1", "g1")] = broken
    try:
        assert P.validate() == "twist (g1,g1): naturality fails at X->Y basis 0"
    finally:
        P.twists[("g1", "g1")] = tw


def test_mor_inverse(parity):
    odd = parity.basis_mor("X", "X", 1)
    inv = parity.invert(odd)
    assert inv is not None
    assert parity.compose(inv, odd) == parity.identity("X")
    zero = zero_mor(parity, "X", "X")
    assert parity.invert(zero) is None
