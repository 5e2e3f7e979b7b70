"""Built-in example prestacks used by the test suite and the CLI docs.

All fixtures keep identities as basis vectors of their endomorphism modules,
which the normalized-reduced basis enumeration relies on.
"""

from __future__ import annotations

from fractions import Fraction

from .basecat import chain_poset, cyclic_group_base, point_base
from .lincat import (LinearCategory, LinFunctor, NatTransform, compose_functors,
                     identity_functor)
from .linalg import QQ
from .prestack import Prestack


def _scalar_fiber(field, name="k"):
    """The one-object fiber with hom module k and basis ("e",)."""
    return LinearCategory(
        name,
        field,
        ["X"],
        {("X", "X"): ["e"]},
        {("X", "X", "X"): {(0, 0): {0: field.one}}},
        {"X": (field.one,)},
    )


def _scalar_transport(src_cat, tgt_cat):
    """The evident isomorphism between two copies of the one-object fiber k."""
    field = src_cat.field
    mats = {("X", "X"): ((field.one,),)}
    return LinFunctor(src_cat, tgt_cat, {"X": "X"}, mats)


def scalar_chain_prestack(length, lam=None, field=None, name=None):
    """Fibers k over the poset 0 < 1 < ... < length, with scalar twists.

    ``lam`` maps a composable pair of non-identity arrow ids to an invertible
    scalar; omitted pairs default to 1.  Coherence is the cocycle equation
    lam(f,g) lam(gf,h) = lam(g,h) lam(f,hg).
    """
    field = field or QQ
    base = chain_poset(length)
    fibers = {u: _scalar_fiber(field) for u in base.objects}
    restr = {}
    for a in base.arrow_ids:
        src_fib = fibers[base.tgt(a)]
        tgt_fib = fibers[base.src(a)]
        restr[a] = (identity_functor(src_fib) if src_fib is tgt_fib
                    else _scalar_transport(src_fib, tgt_fib))
    lam = lam or {}
    twists = {}
    for f in base.arrow_ids:
        for g in base.arrow_ids:
            if base.tgt(f) != base.src(g):
                continue
            if base.is_identity(f) or base.is_identity(g):
                continue
            scal = field.parse(lam.get((f, g), 1))
            bottom = fibers[base.src(f)]
            comps = {"X": bottom.scale(scal, bottom.identity("X"))}
            twists[(f, g)] = NatTransform(compose_functors(restr[f], restr[g]),
                                          restr[base.then(f, g)], comps)
    return Prestack(name or ("scalar-chain-%d" % length), field, base, fibers, restr, twists)


def coboundary_lambdas(base, z):
    """A coherent scalar family lam(f,g) = z(f) z(g) / z(gf) from arrow weights."""
    lam = {}
    for f in base.arrow_ids:
        for g in base.arrow_ids:
            if base.tgt(f) != base.src(g):
                continue
            if base.is_identity(f) or base.is_identity(g):
                continue
            gf = base.then(f, g)
            lam[(f, g)] = Fraction(z.get(f, 1)) * Fraction(z.get(g, 1)) / Fraction(z.get(gf, 1))
    return lam


def triv_a2(field=None):
    """Presheaf of k over the poset 0 < 1."""
    return scalar_chain_prestack(1, field=field, name="triv-A2")


def triv_a3(field=None):
    """Presheaf of k over the poset 0 < 1 < 2."""
    return scalar_chain_prestack(2, field=field, name="triv-A3")


def scalar_twist_2chain(lam=5, field=None):
    """Poset 0 < 1 < 2, fibers k, the single twist (u01, u12) set to lam."""
    return scalar_chain_prestack(
        2, lam={("u01", "u12"): lam}, field=field, name="scalar-twist-2chain"
    )


def scalar_twist_3chain(field=None):
    """Poset 0 < 1 < 2 < 3 with a nontrivial coherent scalar twist family."""
    base = chain_poset(3)
    z = {"u01": 2, "u12": 3, "u23": 5, "u02": 7, "u13": 11, "u03": 13}
    lam = coboundary_lambdas(base, z)
    return scalar_chain_prestack(3, lam=lam, field=field, name="scalar-twist-3chain")


def _parity_fiber(field):
    """Two objects, every hom module of rank 2 with parity-graded composition."""
    objs = ["X", "Y"]
    homs = {}
    comp = {}
    for a in objs:
        for b in objs:
            homs[(a, b)] = ["ev", "od"]
    for a in objs:
        for b in objs:
            for c in objs:
                table = {}
                for gi in range(2):
                    for fi in range(2):
                        table[(gi, fi)] = {(gi + fi) % 2: field.one}
                comp[(a, b, c)] = table
    idc = {a: (field.one, field.zero) for a in objs}
    return LinearCategory("parity", field, objs, homs, comp, idc)


def rank2_fiber(field=None):
    """Base Z/2, parity fibers with rank-2 homs, object-swapping restriction
    and a genuinely non-identity twist."""
    field = field or QQ
    base = cyclic_group_base(2)
    fib = _parity_fiber(field)
    fibers = {"*": fib}
    swap = {"X": "Y", "Y": "X"}
    mats = {}
    for (a, b) in fib._hom:
        cols = []
        for i in range(2):
            col = [field.zero, field.zero]
            col[i] = field.one
            cols.append(tuple(col))
        mats[(a, b)] = tuple(cols)
    e_star = LinFunctor(fib, fib, swap, mats, name="swap")
    restr = {"g0": identity_functor(fib), "g1": e_star}
    # twist (g1, g1): g1* g1* -> id, component at A is the odd generator of End(A)
    comps = {a: fib.basis_mor(a, a, 1) for a in fib.objects}
    twists = {("g1", "g1"): NatTransform(compose_functors(e_star, e_star),
                                         identity_functor(fib), comps)}
    return Prestack("rank2-fiber", field, base, fibers, restr, twists)


def dual_pair(field=None):
    """Point base; fiber with two objects whose endomorphism rings are
    k[x]/(x^2), no morphisms between them.  dim H^2 = 2."""
    field = field or QQ
    base = point_base()
    objs = ["X", "Y"]
    homs = {("X", "X"): ["one", "x"], ("Y", "Y"): ["one", "y"],
            ("X", "Y"): [], ("Y", "X"): []}
    comp = {}
    for a in objs:
        table = {
            (0, 0): {0: field.one},
            (0, 1): {1: field.one},
            (1, 0): {1: field.one},
            (1, 1): {},  # nilpotent square
        }
        comp[(a, a, a)] = table
    idc = {a: (field.one, field.zero) for a in objs}
    fib = LinearCategory("dualpair", field, objs, homs, comp, idc)
    restr = {"i": identity_functor(fib)}
    return Prestack("dual-pair", field, base, {"*": fib}, restr, {})


BUILDERS = {
    "triv-A2": triv_a2,
    "triv-A3": triv_a3,
    "scalar-twist-2chain": scalar_twist_2chain,
    "scalar-twist-3chain": scalar_twist_3chain,
    "rank2-fiber": rank2_fiber,
    "dual-pair": dual_pair,
}


def build(name, field=None):
    if name not in BUILDERS:
        raise KeyError("unknown fixture %r (have %s)" % (name, sorted(BUILDERS)))
    return BUILDERS[name](field=field)
