"""Generated coherent prestacks beyond the shipped fixtures.

``carry_prestack(n, c)`` has the one-object scalar fiber k over the group
Z/n, identity restrictions and the carry 2-cocycle
lambda(a, b) = c^[a + b >= n].  Its graded category is the twisted group
algebra k[x]/(x^n - c), and its GS cohomology is the identity-graded part of
that algebra's Hochschild cohomology: the group cohomology H^*(Z/n, k), which
is k in degree 0 and zero above when n is invertible in k.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from prestacks.basecat import cyclic_group_base
from prestacks.cli import LAWS, cohomology_table
from prestacks.compare import Comparison
from prestacks.graded import GradedComplex
from prestacks.gscomplex import GSComplex
from prestacks.lincat import LinearCategory, NatTransform, compose_functors, identity_functor
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
    failures = []
    LAWS["gf"][0](P, CG, CU, Comparison(CG, CU), 3, 0, 0, failures.append)
    assert failures == []
