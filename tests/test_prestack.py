from fractions import Fraction

import pytest

from oracles import compose_functor_chain
from prestacks import fixtures
from prestacks.basecat import chain_poset
from prestacks.lincat import identity_transform


def test_presheaves_validate(triv_a2, triv_a3):
    assert triv_a2.validate() is None
    assert triv_a3.validate() is None


@pytest.mark.parametrize("lam", [1, 2, -3, "7/2"])
def test_scalar_twist_2chain_valid_for_every_unit(lam):
    P = fixtures.scalar_twist_2chain(lam=lam)
    assert P.validate() is None


def test_scalar_3chain_violating_cocycle_is_caught():
    base = chain_poset(3)
    lam = fixtures.coboundary_lambdas(base, {"u01": 2, "u12": 3, "u23": 5})
    lam[("u01", "u12")] = lam[("u01", "u12")] * 2  # break the cocycle equation
    P = fixtures.scalar_chain_prestack(3, lam=lam)
    msg = P.validate()
    assert msg is not None and "coherence" in msg


def test_zero_twist_component_rejected():
    P = fixtures.scalar_twist_2chain(lam=0)
    msg = P.validate()
    assert msg is not None and "invertible" in msg


def test_sigma_lower_is_composite_lookup(twist3):
    s = twist3.base.simplex(("u01", "u12"))
    assert twist3.sigma_lower(s) is twist3.restriction("u02")
    s1 = twist3.base.simplex(("u01",))
    assert twist3.sigma_lower(s1) is twist3.restriction("u01")


def test_sigma_upper_equals_lower_for_presheaf(triv_a3):
    for p in range(0, 3):
        for s in triv_a3.base.nerve(p):
            up = triv_a3.sigma_upper(s)
            lo = triv_a3.sigma_lower(s)
            assert up.obj_map == lo.obj_map
            assert up.mats == lo.mats


def test_sigma_upper_vs_lower_twisted(rank2):
    # the two composites have the same matrices here but differ through the
    # non-identity path transform; check eval_path links them
    from prestacks.combinatorics import enumerate_paths, eval_path
    s = rank2.base.simplex(("g1", "g1"))
    t = eval_path(rank2, enumerate_paths(s.arrows)[0])
    assert t.validate() is None
    fib = rank2.fiber("*")
    for a in fib.objects:
        assert t.at(a) == fib.basis_mor(a, a, 1)  # the odd generator


def test_c_sigma_k_boundary_conventions(twist2):
    s = twist2.base.simplex(("u01", "u12"))
    for k in (0, 2):
        tw = twist2.c_sigma_k(s, k)
        assert tw.eq_components(identity_transform(tw.src_functor))
    mid = twist2.c_sigma_k(s, 1)
    lam = twist2.field.parse(5)
    assert mid.at("X").coords == (lam,)


def test_epsilon_presheaf_is_identity(triv_a3):
    s = triv_a3.base.simplex(("u01", "u12"))
    eps = triv_a3.epsilon_sigma_i(s, 1)
    assert eps.eq_components(identity_transform(eps.src_functor))


def test_epsilon_p2_is_the_twist(twist2):
    s = twist2.base.simplex(("u01", "u12"))
    eps = twist2.epsilon_sigma_i(s, 1)
    tw = twist2.twist("u01", "u12")
    assert eps.at("X") == tw.at("X")


def test_epsilon_components_natural(rank2):
    s = rank2.base.simplex(("g1", "g1", "g1"))
    for i in (1, 2):
        assert rank2.epsilon_sigma_i(s, i).validate() is None


def test_derived_transforms_invertible(rank2, twist3):
    for P in (rank2, twist3):
        for p in (2, 3):
            for s in P.base.nerve(p):
                for k in range(0, p + 1):
                    assert P.c_sigma_k(s, k).is_invertible()
                for i in range(1, p):
                    assert P.epsilon_sigma_i(s, i).is_invertible()


def test_presheaf_derived_transforms_are_identities(triv_a3):
    for p in (2, 3):
        for s in triv_a3.base.nerve(p):
            for i in range(1, p):
                eps = triv_a3.epsilon_sigma_i(s, i)
                assert eps.eq_components(identity_transform(eps.src_functor))


def _generated_chain():
    """scalar_chain_prestack(4) with coboundary twists of fractional weights."""
    base = chain_poset(4)
    arrows = [a for a in base.arrow_ids if not base.is_identity(a)]
    z = {a: Fraction((-1) ** k * (k + 2), k % 3 + 1) for k, a in enumerate(arrows)}
    return fixtures.scalar_chain_prestack(4, lam=fixtures.coboundary_lambdas(base, z))


STARS_INPUTS = dict({name: (lambda name=name: fixtures.build(name)) for name in
                     ["triv-A2", "triv-A3", "scalar-twist-2chain", "scalar-twist-3chain",
                      "rank2-fiber", "dual-pair"]},
                    **{"scalar-chain-4": _generated_chain})


@pytest.mark.parametrize("name", list(STARS_INPUTS))
def test_stars_are_the_folded_restrictions(name):
    P = STARS_INPUTS[name]()
    assert P.validate() is None
    for p in range(1, 5):
        for s in P.base.nerve(p):
            want = compose_functor_chain([P.restriction(a) for a in s.arrows], None)
            got = P.stars(s.arrows)
            assert got.src_cat is want.src_cat and got.tgt_cat is want.tgt_cat, s.arrows
            assert got.obj_map == want.obj_map and got.mats == want.mats, s.arrows
