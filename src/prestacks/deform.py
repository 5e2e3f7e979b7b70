"""First-order deformations over dual numbers and the degree-2 dictionary.

A deformation datum is a normalized reduced degree-2 cochain: its three
components perturb composition, restriction and twist.  Building the dual
number prestack and running the generic validator gives a route to the
cocycle condition that is independent of the differential, so the two are
cross-checked against each other.
"""

from __future__ import annotations

from itertools import product

from .basecat import Simplex
from .gscomplex import GSComplex
from .lincat import LinearCategory, LinFunctor, Mor, NatTransform, compose_functors
from .linalg import DualNumbers
from .prestack import Prestack


def _dual_cat(cat, dual, m1_lookup):
    """The fiber category over dual numbers, composition perturbed by m1."""
    homs = {k: list(v) for k, v in cat._hom.items()}
    comp = {}
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                table = {}
                for gi in range(cat.rank(b, c)):
                    for fi in range(cat.rank(a, b)):
                        base_tab = cat.compose_basis(a, b, c, gi, fi)
                        eps = m1_lookup(a, b, c, gi, fi)
                        keys = set(base_tab) | set(eps)
                        cell = {}
                        for k in keys:
                            cell[k] = (base_tab.get(k, cat.field.zero),
                                       eps.get(k, cat.field.zero))
                        if cell:
                            table[(gi, fi)] = cell
                if table:
                    comp[(a, b, c)] = table
    idc = {a: tuple((v, cat.field.zero) for v in cat.identity_coords[a])
           for a in cat.objects}
    return LinearCategory(cat.name + "[e]", dual, cat.objects, homs, comp, idc)


class DeformationDatum:
    """The components (m1, f1, c1) of a degree-2 cochain of the GS complex."""

    def __init__(self, complex_, cochain):
        if cochain.degree != 2:
            raise ValueError("deformation data are degree-2 cochains")
        self.complex = complex_
        self.cochain = cochain

    def component(self, p):
        """The C^{p, 2-p} part as a key -> vector dict."""
        return {k: v for k, v in self.cochain.data.items() if k[0].p == p}


def build_deformation(prestack, datum):
    """The prestack over dual numbers with structure perturbed by the datum.

    Returns well-typed data; validity is a separate question answered by
    ``validate_deformation``.
    """
    P = prestack
    dual = DualNumbers(P.field)
    phi = datum.cochain
    zero = P.field.zero

    def m1_lookup_factory(u_obj):
        def look(a, b, c, gi, fi):
            key = (Simplex(u_obj, ()), (a, b, c), (gi, fi))
            vec = phi.data.get(key)
            if vec is None:
                return {}
            return {k: v for k, v in enumerate(vec) if not P.field.is_zero(v)}
        return look

    fibers = {u: _dual_cat(P.fiber(u), dual, m1_lookup_factory(u))
              for u in P.base.objects}

    restr = {}
    for arrow in P.base.arrow_ids:
        fun = P.restriction(arrow)
        src_u, tgt_u = P.base.src(arrow), P.base.tgt(arrow)
        simp = Simplex(src_u, (arrow,))
        mats = {}
        for (a, b), cols in fun.mats.items():
            new_cols = []
            for i, col in enumerate(cols):
                key = (simp, (a, b), (i,))
                vec = phi.data.get(key)
                eps = vec if vec is not None else [zero] * len(col)
                new_cols.append(tuple((c, e) for c, e in zip(col, eps)))
            mats[(a, b)] = tuple(new_cols)
        restr[arrow] = LinFunctor(fibers[tgt_u], fibers[src_u],
                                  fun.obj_map, mats, name=fun.name)

    twists = {}
    for (f, g), tw in P.twists.items():
        simp = Simplex(P.base.src(f), (f, g))
        comps = {}
        for a, m in tw.components.items():
            key = (simp, (a,), ())
            vec = phi.data.get(key)
            eps = vec if vec is not None else [zero] * len(m.coords)
            fib = fibers[P.base.src(f)]
            comps[a] = Mor(fib, m.src, m.tgt,
                           tuple((c, e) for c, e in zip(m.coords, eps)))
        src_fun = compose_functors(restr[f], restr[g])
        tgt_fun = restr[P.base.then(f, g)]
        twists[(f, g)] = NatTransform(src_fun, tgt_fun, comps)
    return Prestack(P.name + "[e]", dual, P.base, fibers, restr, twists)


def validate_deformation(deformed):
    """Run the generic prestack validator over dual numbers."""
    return deformed.validate()


def deformation_is_cocycle(complex_, datum):
    """The independent route: normalized reduced and killed by the differential."""
    phi = datum.cochain
    if not (complex_.is_normalized(phi) and complex_.is_reduced(phi)):
        return False
    return complex_.apply_diff(phi).is_zero()


class EquivalenceDatum:
    """A degree-1 cochain (g1, -tau1), read as the first-order equivalence
    (1 + g1 e, 1 + tau1 e): its C^{0,1} part perturbs the identity functor of
    each fiber, its C^{1,0} part the identity transformation at each arrow."""

    def __init__(self, complex_, cochain):
        if cochain.degree != 1:
            raise ValueError("equivalence data are degree-1 cochains")
        self.complex = complex_
        self.cochain = cochain


def check_equivalence_morphism(P, e, deformed, deformed2):
    """Verify that (1 + g1 eps, 1 + tau1 eps) is a prestack morphism between
    the two deformations.  Returns None or the first failing axiom.

    g is one functor per base object and tau one natural transformation
    u'* g_U -> g_V u* per arrow u: V -> U, so their own validators check the
    functor axioms and naturality; the unit axiom at identity arrows and the
    twist compatibility are checked here."""
    base, F = P.base, P.field
    phi = e.cochain.data

    def plus_eps(coords, key, sign=1):
        """coords + sign * eps * (the cochain's value at key), over dual numbers."""
        vec = phi.get(key) or [F.zero] * len(coords)
        return tuple((c, v if sign == 1 else F.neg(v)) for c, v in zip(coords, vec))

    g = {}
    for u_obj in base.objects:
        fib = P.fiber(u_obj)
        unit = Simplex(u_obj, ())
        mats = {(a, b): tuple(plus_eps(fib.basis_mor(a, b, i).coords, (unit, (a, b), (i,)))
                              for i in range(fib.rank(a, b)))
                for a, b in product(fib.objects, repeat=2)}
        g[u_obj] = LinFunctor(deformed.fiber(u_obj), deformed2.fiber(u_obj),
                              {a: a for a in fib.objects}, mats)
        bad = g[u_obj].validate()
        if bad is not None:
            return "g over %s: %s" % (u_obj, bad)
    tau = {}
    for u in base.arrow_ids:
        v_obj, u_obj = base.src(u), base.tgt(u)
        restr2 = deformed2.restriction(u)
        comps = {}
        for a in P.fiber(u_obj).objects:
            x = restr2.on_obj(a)
            coords = plus_eps(P.fiber(v_obj).identity_coords[x],
                              (Simplex(v_obj, (u,)), (a,), ()), -1)
            comps[a] = Mor(deformed2.fiber(v_obj), x, x, coords)
        tau[u] = NatTransform(compose_functors(restr2, g[u_obj]),
                              compose_functors(g[v_obj], deformed.restriction(u)), comps)
    for u_obj in base.objects:
        eid = base.identities[u_obj]
        for a, m in tau[eid].components.items():
            if m != deformed2.fiber(u_obj).identity(a):
                return "tau at identity arrow %s is not the identity" % eid
    for u, t in tau.items():
        bad = t.validate()
        if bad is not None:
            return "tau at arrow %s: %s" % (u, bad)
    # twist axiom: m'(tau^{hf}, c'^{f,h}) = m'(g(c^{f,h}), tau^{f, h*A}, f'*(tau^h))
    for (f, h), tw2 in deformed2.twists.items():
        if base.is_identity(f) or base.is_identity(h):
            continue
        w_obj = base.src(f)
        fib2 = deformed2.fiber(w_obj)
        tw1 = deformed.twists[(f, h)]
        for a in deformed.fiber(base.tgt(h)).objects:
            lhs = fib2.compose(tau[base.then(f, h)].at(a), tw2.at(a))
            mid = deformed2.restriction(f).apply(tau[h].at(a))
            rhs = fib2.compose(g[w_obj].apply(tw1.at(a)),
                               fib2.compose(tau[f].at(deformed.restriction(h).on_obj(a)), mid))
            if lhs.coords != rhs.coords:
                return "twist compatibility fails at pair (%s,%s), object %s" % (f, h, a)
    return None


def equivalence_from_cochain(P, complex_, e, d1, d2):
    """Both routes of the equivalence dictionary; returns (morphism_ok,
    coboundary_ok, detail)."""
    detail = check_equivalence_morphism(P, e, build_deformation(P, d1),
                                        build_deformation(P, d2))
    coboundary_ok = complex_.apply_diff(e.cochain) == d1.cochain.sub(d2.cochain)
    return detail is None, coboundary_ok, detail


def classify_h2(P, complex_=None):
    """dim H^2 of the normalized reduced complex with representative cocycles.

    Representatives are kernel vectors reduced to echelon form modulo the
    image, so the choice is deterministic.
    """
    C = complex_ if complex_ is not None else GSComplex(P)
    F = C.field
    d3 = C.nr_matrix(3)
    d2 = C.nr_matrix(2)
    kernel = d3.kernel_basis()
    echelon = {}  # echelon basis of the image

    def reduce_vec(vec):
        v = dict(vec)
        while v:
            lead = min(v)
            row = echelon.get(lead)
            if row is None:
                return v
            coef = v[lead]
            for j, w in row.items():
                x = F.sub(v.get(j, F.zero), F.mul(coef, w))
                if F.is_zero(x):
                    v.pop(j, None)
                else:
                    v[j] = x
        return v

    def insert(vecdict):
        v = reduce_vec(vecdict)
        if not v:
            return None
        lead = min(v)
        inv = F.inv(v[lead])
        v = {j: F.mul(inv, w) for j, w in v.items()}
        echelon[lead] = v
        return v

    for col in d2.col_lists():
        if col:
            insert(col)
    reps = []
    nr2 = C.nr_keys(2)
    for vec in kernel:
        vd = {i: v for i, v in enumerate(vec) if not F.is_zero(v)}
        v = insert(vd)
        if v is not None:
            full = [F.zero] * d3.cols
            for i, w in v.items():
                full[i] = w
            reps.append(C.from_vector(2, full, keys=nr2))
    return reps


def is_nr_coboundary(C, phi):
    """True iff the nr degree-2 cochain is d of an nr 1-cochain."""
    d2 = C.nr_matrix(2)
    vec = C.to_vector(phi, keys=C.nr_keys(2))
    return d2.solve(vec) is not None
