"""First-order deformations over dual numbers and the degree-2 dictionary.

A deformation datum is a normalized reduced degree-2 cochain: its three
components perturb composition, restriction and twist.  Building the dual
number prestack and running the generic validator gives a route to the
cocycle condition that is independent of the differential, so the two are
cross-checked against each other.
"""

from __future__ import annotations

from .basecat import Simplex
from .complexbase import SparseCochain
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
    """(g1, tau1); the matching 1-cochain is (g1, -tau1)."""

    def __init__(self, complex_, g1_data, tau1_data):
        self.complex = complex_
        self.g1 = dict(g1_data)    # (Simplex(U,()), (A,B), (i,)) -> vector
        self.tau1 = dict(tau1_data)  # (Simplex(V,(u,)), (A,), ()) -> vector

    @classmethod
    def from_cochain(cls, complex_, cochain):
        if cochain.degree != 1:
            raise ValueError("equivalence data are degree-1 cochains")
        F = complex_.field
        g1 = {}
        tau1 = {}
        for key, vec in cochain.data.items():
            if key[0].p == 0:
                g1[key] = list(vec)
            else:
                tau1[key] = [F.neg(v) for v in vec]
        return cls(complex_, g1, tau1)

    def cochain(self):
        """The 1-cochain (g1, -tau1)."""
        F = self.complex.field
        phi = SparseCochain(self.complex, 1)
        for key, vec in self.g1.items():
            phi.data[key] = list(vec)
        for key, vec in self.tau1.items():
            phi.data[key] = [F.neg(v) for v in vec]
        return phi


def check_equivalence_morphism(P, e, deformed, deformed2):
    """Verify that (1 + g1 eps, 1 + tau1 eps) is a prestack morphism between
    the two deformations.  Returns None or the first failing axiom."""
    dual = deformed.field
    base = P.base

    def g_apply(u_obj, m):
        """(1 + g1 eps): a morphism of the first deformation's fiber, landing
        in the second deformation's fiber over the same base object."""
        fib2 = deformed2.fiber(u_obj)
        # g(m) = m + eps * g1(m); only the base part rides onto g1 at first order
        F = P.field
        eps_part = [F.zero] * len(m.coords)
        for i, c in enumerate(m.coords):
            vec = e.g1.get((Simplex(u_obj, ()), (m.src, m.tgt), (i,)))
            if vec is None:
                continue
            for k, v in enumerate(vec):
                eps_part[k] = F.add(eps_part[k], F.mul(c[0], v))
        new = [(c[0], F.add(c[1], ep)) for c, ep in zip(m.coords, eps_part)]
        return Mor(fib2, m.src, m.tgt, tuple(new))

    def tau(u_arrow, a_obj):
        """tau^{u,A} = 1 + tau1 eps, a morphism of the second deformation."""
        v_obj = base.src(u_arrow)
        fib2 = deformed2.fiber(v_obj)
        tgt = deformed2.restriction(u_arrow).on_obj(a_obj)
        ident = fib2.identity(tgt)
        F = P.field
        vec = e.tau1.get((Simplex(v_obj, (u_arrow,)), (a_obj,), ()))
        if vec is None:
            return ident
        coords = [(c[0], F.add(c[1], v)) for c, v in zip(ident.coords, vec)]
        return Mor(fib2, tgt, tgt, tuple(coords))

    # functor axioms for g
    for u_obj in base.objects:
        fib = deformed.fiber(u_obj)
        fib2 = deformed2.fiber(u_obj)
        for a in fib.objects:
            ga = g_apply(u_obj, fib.identity(a))
            if ga.coords != fib2.identity(a).coords:
                return "g does not preserve the identity at %s/%s" % (u_obj, a)
        for a in fib.objects:
            for b in fib.objects:
                for c in fib.objects:
                    for fi in range(fib.rank(a, b)):
                        fm = fib.basis_mor(a, b, fi)
                        for gi in range(fib.rank(b, c)):
                            gm = fib.basis_mor(b, c, gi)
                            lhs = g_apply(u_obj, fib.compose(gm, fm))
                            rhs = fib2.compose(g_apply(u_obj, gm), g_apply(u_obj, fm))
                            if lhs.coords != rhs.coords:
                                return ("g is not a functor over %s at (%s,%s,%s)"
                                        % (u_obj, a, b, c))
    # unit axiom for tau
    for u_obj in base.objects:
        eid = base.identities[u_obj]
        for a in deformed.fiber(u_obj).objects:
            t = tau(eid, a)
            if t.coords != deformed.fiber(u_obj).identity(a).coords:
                return "tau at identity arrow %s is not the identity" % eid
    # naturality: m'(g(u* a), tau^{u,A}) = m'(tau^{u,B}, u'*(g a))
    for u in base.arrow_ids:
        v_obj, u_obj = base.src(u), base.tgt(u)
        fib_top = deformed.fiber(u_obj)
        fib2_bot = deformed2.fiber(v_obj)
        for a in fib_top.objects:
            for b in fib_top.objects:
                for fi in range(fib_top.rank(a, b)):
                    m = fib_top.basis_mor(a, b, fi)
                    lhs = fib2_bot.compose(
                        g_apply(v_obj, deformed.restriction(u).apply(m)), tau(u, a))
                    rhs = fib2_bot.compose(
                        tau(u, b), deformed2.restriction(u).apply(g_apply(u_obj, m)))
                    if lhs.coords != rhs.coords:
                        return "naturality of tau fails at arrow %s, basis %s->%s[%d]" \
                               % (u, a, b, fi)
    # twist axiom: m'(tau^{gf}, c'^{f,g}) = m'(g(c^{f,g}), tau^{f, g*A}, f'*(tau^g))
    for (f, g), tw2 in deformed2.twists.items():
        if base.is_identity(f) or base.is_identity(g):
            continue
        gf = base.then(f, g)
        w_obj = base.src(f)
        fib2 = deformed2.fiber(w_obj)
        tw1 = deformed.twists[(f, g)]
        for a in deformed.fiber(base.tgt(g)).objects:
            lhs = fib2.compose(tau(gf, a), tw2.at(a))
            mid = deformed2.restriction(f).apply(tau(g, a))
            rhs = fib2.compose(g_apply(w_obj, tw1.at(a)),
                               fib2.compose(tau(f, deformed.restriction(g).on_obj(a)), mid))
            if lhs.coords != rhs.coords:
                return "twist compatibility fails at pair (%s,%s), object %s" % (f, g, a)
    return None


def equivalence_from_cochain(P, complex_, e, d1, d2):
    """Both routes of the equivalence dictionary; returns (morphism_ok,
    coboundary_ok, detail)."""
    q1 = build_deformation(P, d1)
    q2 = build_deformation(P, d2)
    detail = check_equivalence_morphism(P, e, q1, q2)
    morphism_ok = detail is None
    diff = complex_.apply_diff(e.cochain())
    want = d1.cochain.sub(d2.cochain)
    coboundary_ok = (diff == want)
    return morphism_ok, coboundary_ok, detail


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
