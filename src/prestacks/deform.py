"""First-order deformations over dual numbers and the degree-2 dictionary.

A deformation is a normalized reduced degree-2 cochain phi, and an equivalence
a degree-1 cochain; each is used as it is.  One rule, ``_dual``, reads either
as a perturbation over k[e]: a structure constant c at the cell ``key``
becomes c + e*phi(key).  The three components of phi perturb composition,
restriction and twist; those of an equivalence the identity functor of each
fiber and the identity transformation at each arrow.  Building the dual
number prestack and running the generic validator gives a route to the
cocycle condition that is independent of the differential, so the two are
cross-checked against each other.
"""

from __future__ import annotations

from itertools import product

from .basecat import Simplex
from .complexbase import text_order
from .gscomplex import NrComplex
from .lincat import LinearCategory, LinFunctor, Mor, NatTransform, compose_functors
from .linalg import DualNumbers, SparseMatrix
from .prestack import Prestack


def _dual(F, coords, phi, key, sign=1):
    """coords + sign*e*phi(key) as pairs over k[e]; phi reads zero where it
    holds nothing at key."""
    vec = phi.data.get(key)
    if vec is None:
        return tuple((c, F.zero) for c in coords)
    return tuple((c, v if sign == 1 else F.neg(v)) for c, v in zip(coords, vec))


def _dual_cat(cat, dual, phi, u_obj):
    """The fiber category over ``u_obj`` over dual numbers, composition
    perturbed by the m1 part of phi."""
    F, unit = cat.field, Simplex(u_obj, ())
    comp = {}
    for a, b, c in product(cat.objects, repeat=3):
        table = {}
        for gi, fi in product(range(cat.rank(b, c)), range(cat.rank(a, b))):
            base = cat.compose_basis(a, b, c, gi, fi)
            coords = [base.get(k, F.zero) for k in range(cat.rank(a, c))]
            pairs = _dual(F, coords, phi, (unit, (a, b, c), (gi, fi)))
            cell = {k: v for k, v in enumerate(pairs) if not dual.is_zero(v)}
            if cell:
                table[(gi, fi)] = cell
        if table:
            comp[(a, b, c)] = table
    idc = {a: tuple((v, F.zero) for v in cat.identity_coords[a]) for a in cat.objects}
    return LinearCategory(cat.name + "[e]", dual, cat.objects, cat._hom, comp, idc)


def build_deformation(P, phi):
    """The prestack over dual numbers whose structure is P's plus e times the
    degree-2 cochain phi.

    Returns well-typed data; whether it is a prestack is the question its
    ``validate()`` answers.
    """
    if phi.degree != 2:
        raise ValueError("deformation data are degree-2 cochains")
    base, F = P.base, P.field
    dual = DualNumbers(F)
    fibers = {u: _dual_cat(P.fiber(u), dual, phi, u) for u in base.objects}
    restr = {}
    for arrow in base.arrow_ids:
        fun = P.restriction(arrow)
        simp = Simplex(base.src(arrow), (arrow,))
        mats = {(a, b): tuple(_dual(F, col, phi, (simp, (a, b), (i,)))
                              for i, col in enumerate(cols))
                for (a, b), cols in fun.mats.items()}
        restr[arrow] = LinFunctor(fibers[base.tgt(arrow)], fibers[base.src(arrow)],
                                  fun.obj_map, mats, name=fun.name)
    twists = {}
    for (f, g), tw in P.twists.items():
        simp = Simplex(base.src(f), (f, g))
        fib = fibers[base.src(f)]
        comps = {a: Mor(fib, m.src, m.tgt, _dual(F, m.coords, phi, (simp, (a,), ())))
                 for a, m in tw.components.items()}
        twists[(f, g)] = NatTransform(compose_functors(restr[f], restr[g]),
                                      restr[base.then(f, g)], comps)
    return Prestack(P.name + "[e]", dual, base, fibers, restr, twists)


def deformation_is_cocycle(complex_, phi):
    """The independent route: normalized reduced and killed by the differential."""
    return cocycle_failure(complex_, phi) is None


def cocycle_failure(complex_, phi):
    """None if phi is a normalized reduced cocycle.  Else what the first
    condition it fails (normalized, reduced, cocycle) found, and its first
    witness cell in cochain text order: a cell of phi for the first two, of
    its differential for the last."""
    key = complex_.normalized_witness(phi)
    if key is not None:
        return "not normalized: nonzero with an identity argument", key
    key = complex_.reduced_witness(phi)
    if key is not None:
        return "not reduced: nonzero over a degenerate simplex", key
    image = complex_.apply_diff(phi).data  # only nonzero values
    return ("not a cocycle: d is nonzero", min(image, key=text_order)) if image else None


def check_equivalence_morphism(P, e, deformed, deformed2):
    """Verify that the degree-1 cochain e = (g1, -tau1), read as the
    first-order equivalence (1 + g1 eps, 1 + tau1 eps), is a prestack
    morphism between the two deformations.  Returns None or the first
    failing axiom.

    Its C^{0,1} part perturbs the identity functor of each fiber, its C^{1,0}
    part the identity transformation at each arrow: g is one functor per base
    object and tau one natural transformation u'* g_U -> g_V u* per arrow
    u: V -> U, so their own validators check the functor axioms and
    naturality; the unit axiom at identity arrows and the twist compatibility
    are checked here."""
    if e.degree != 1:
        raise ValueError("equivalence data are degree-1 cochains")
    base, F = P.base, P.field
    g = {}
    for u_obj in base.objects:
        fib = P.fiber(u_obj)
        unit = Simplex(u_obj, ())
        mats = {(a, b): tuple(_dual(F, fib.basis_mor(a, b, i).coords, e, (unit, (a, b), (i,)))
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
            coords = _dual(F, P.fiber(v_obj).identity_coords[x],
                           e, (Simplex(v_obj, (u,)), (a,), ()), -1)
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


def equivalence_from_cochain(P, complex_, e, phi1, phi2):
    """Both routes of the equivalence dictionary; returns (morphism_ok,
    coboundary_ok, detail)."""
    detail = check_equivalence_morphism(P, e, build_deformation(P, phi1),
                                        build_deformation(P, phi2))
    coboundary_ok = complex_.apply_diff(e) == phi1.sub(phi2)
    return detail is None, coboundary_ok, detail


def classify_h2(P):
    """Representative cocycles of H^2 of the normalized reduced complex ``NrComplex(P)``.

    The representatives are the rows of the reduced row echelon form of the
    cocycles Z^2 (d3's kernel) whose pivot is not a pivot of the coboundaries
    B^2 (d2's columns), in pivot order.  They are the unique reduced basis of
    a complement of B^2 in Z^2, so the choice is deterministic.
    """
    C = NrComplex(P)
    F = C.field
    d3, d2 = C.matrix(3), C.matrix(2)
    image = SparseMatrix(d2.cols, d2.rows, F, d2.col_lists()).rref_pivots()
    kernel = d3.kernel_basis()
    cocycles = SparseMatrix(len(kernel), d3.cols, F,
                            [{i: v for i, v in enumerate(vec) if not F.is_zero(v)}
                             for vec in kernel]).rref_pivots()
    reps = []
    for col in sorted(set(cocycles) - set(image)):
        full = [F.zero] * d3.cols
        for i, v in cocycles[col].items():
            full[i] = v
        reps.append(C.from_vector(2, full))
    return reps
