"""Generated coherent prestacks beyond the shipped fixtures.

``carry_prestack(n, c)`` has the one-object scalar fiber k over the group
Z/n, identity restrictions and the carry 2-cocycle
lambda(a, b) = c^[a + b >= n].  Its graded category is the twisted group
algebra k[x]/(x^n - c), and its GS cohomology is the identity-graded part of
that algebra's Hochschild cohomology: the group cohomology H^*(Z/n, k), which
is k in degree 0 and zero above when n is invertible in k.  The comparison
maps F and G commute with the differentials, GF = 1 on the normalized reduced
cochains and FG - 1 = delta T + T delta, on twists that are not trivial.

``fold_prestack`` has a restriction that sends two objects to one, so a
fiber morphism over it does not determine the objects it came from.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from prestacks.basecat import chain_poset, cyclic_group_base
from prestacks.cli import LAWS, cohomology_table
from prestacks.compare import Comparison
from prestacks.graded import GradedComplex
from prestacks.gscomplex import GSComplex
from prestacks.lincat import (LinearCategory, LinFunctor, NatTransform, compose_functors,
                              identity_functor)
from prestacks.linalg import QQ, PrimeField
from prestacks.prestack import Prestack


def carry_prestack(n, c, field):
    """Scalar fibers over Z/n, identity restrictions, twists c^[a + b >= n]."""
    base = cyclic_group_base(n)
    fib = LinearCategory("k", field, ["X"], {("X", "X"): ["e"]},
                         {("X", "X", "X"): {(0, 0): {0: field.one}}}, {"X": (field.one,)})
    ident = identity_functor(fib)
    twists = {}
    for a in range(1, n):
        for b in range(1, n):
            scal = field.from_int(c if a + b >= n else 1)
            twists[("g%d" % a, "g%d" % b)] = NatTransform(
                compose_functors(ident, ident), ident,
                {"X": fib.scale(scal, fib.identity("X"))})
    restr = {g: ident for g in base.arrow_ids}
    return Prestack("carry-%d-%d" % (n, c), field, base, {"*": fib}, restr, twists)


def tables(P):
    """dim H^0..H^3 of each complex; ``cohomology_table`` also checks d o d = 0."""
    return {which: cohomology_table(P, which, 3) for which in ("gs", "nr", "graded")}


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3]), c=st.one_of(st.integers(-9, -1), st.integers(1, 9)))
def test_carry_cocycle_prestack(n, c):
    P = carry_prestack(n, c, QQ)
    assert P.validate() is None
    over_q = tables(P)
    assert over_q["gs"] == over_q["nr"] == over_q["graded"] == [1, 0, 0, 0]
    assert tables(carry_prestack(n, c, PrimeField(1000003))) == over_q
    CG, CU = GSComplex(P), GradedComplex(P)
    cmp_ = Comparison(CG, CU)
    failures = []
    for law in ("gf", "fd", "gd", "homotopy"):
        LAWS[law][0](P, CG, CU, cmp_, 3, failures.append)
    assert failures == []


def dual_numbers(field, objs):
    """One object per name with End = k[x]/(x^2), no morphisms between them."""
    homs = {(a, b): (["one", "x"] if a == b else []) for a in objs for b in objs}
    table = {(0, 0): {0: field.one}, (0, 1): {1: field.one}, (1, 0): {1: field.one},
             (1, 1): {}}
    return LinearCategory("dual", field, objs, homs, {(a, a, a): table for a in objs},
                          {a: (field.one, field.zero) for a in objs})


def fold_prestack(field=QQ):
    """The chain 0 < 1, dual numbers on X and Y over 1 and on Z over 0, and
    the restriction along u01 sending X and Y to Z."""
    top, bottom = dual_numbers(field, ["X", "Y"]), dual_numbers(field, ["Z"])
    unit = ((field.one, field.zero), (field.zero, field.one))
    fold = LinFunctor(top, bottom, {"X": "Z", "Y": "Z"},
                      {(a, b): (unit if a == b else ()) for a in "XY" for b in "XY"})
    restr = {"i0": identity_functor(bottom), "i1": identity_functor(top), "u01": fold}
    return Prestack("fold", field, chain_poset(1), {"0": bottom, "1": top}, restr, {})


def test_comparison_laws_on_a_restriction_that_merges_objects():
    P = fold_prestack()
    assert P.validate() is None
    CG, CU = GSComplex(P), GradedComplex(P)
    cmp_ = Comparison(CG, CU)
    failures = []
    for law in ("gf", "fd", "gd", "homotopy"):
        LAWS[law][0](P, CG, CU, cmp_, 3, failures.append)
    assert failures == []
