"""The Grothendieck construction and its map-graded Hochschild complex.

Morphisms of the graded category carry a base arrow as grading: a morphism
A -> B over u: V -> U is an element of the fiber hom A(V)(A, u*B).
Composition inserts the twist of the pair of gradings.  Formal chains
(integer combinations of tensor strings) support the face and concatenation
operators used by the homotopy and its chain-level diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .basecat import Simplex
from .complexbase import ComplexBase
from .gscomplex import expand_multilinear
from .lincat import diagonal_bimodule


@dataclass(frozen=True)
class GMor:
    """A graded morphism: base arrow grading, endpoints, fiber coordinates.

    The coordinates live in the fiber over src(grading), in the hom module
    hom(src_obj, grading* tgt_obj).
    """

    grading: str
    src_obj: str
    tgt_obj: str
    coords: tuple


class GradedCategory:
    """The graded category of a prestack, with composition mu."""

    def __init__(self, prestack):
        self.P = prestack
        self.field = prestack.field

    def objects(self, u_obj):
        return list(self.P.fiber(u_obj).objects)

    def hom_basis(self, u, a, b):
        """Basis of the morphisms a -> b graded by u: V -> U."""
        P = self.P
        v_obj = P.base.src(u)
        return P.fiber(v_obj).hom_basis(a, P.restriction(u).on_obj(b))

    def hom_rank(self, u, a, b):
        return len(self.hom_basis(u, a, b))

    def basis_gmor(self, u, a, b, i):
        P = self.P
        fib = P.fiber(P.base.src(u))
        m = fib.basis_mor(a, P.restriction(u).on_obj(b), i)
        return GMor(u, a, b, m.coords)

    def identity_gmor(self, u_obj, a):
        fib = self.P.fiber(u_obj)
        return GMor(self.P.base.identities[u_obj], a, a, fib.identity(a).coords)

    def as_fiber_mor(self, g):
        P = self.P
        fib = P.fiber(P.base.src(g.grading))
        from .lincat import Mor
        return Mor(fib, g.src_obj, P.restriction(g.grading).on_obj(g.tgt_obj), g.coords)

    def mu(self, b, a):
        """Composition: b graded u after a graded v, landing over u o v."""
        P = self.P
        base = P.base
        u, v = b.grading, a.grading
        if base.src(u) != base.tgt(v):
            raise ValueError("gradings not composable")
        if a.tgt_obj != b.src_obj:
            raise ValueError("objects not composable")
        uv = base.then(v, u)
        fib = P.fiber(base.src(v))
        bm = self.as_fiber_mor(b)
        vb = P.restriction(v).apply(bm)
        am = self.as_fiber_mor(a)
        tw = P.twist(v, u).at(b.tgt_obj)
        out = fib.compose(tw, fib.compose(vb, am))
        return GMor(uv, a.src_obj, b.tgt_obj, out.coords)

    def mu_associative_defect(self):
        """First basis triple where mu fails associativity, or None.

        Associativity of mu is equivalent to twist coherence.
        """
        P = self.P
        base = P.base
        for w in base.arrow_ids:
            for v in base.arrow_ids:
                if base.tgt(w) != base.src(v):
                    continue
                for u in base.arrow_ids:
                    if base.tgt(v) != base.src(u):
                        continue
                    for a_obj in self.objects(base.src(w)):
                        for b_obj in self.objects(base.src(v)):
                            for c_obj in self.objects(base.src(u)):
                                for d_obj in self.objects(base.tgt(u)):
                                    for fi in range(self.hom_rank(w, a_obj, b_obj)):
                                        f = self.basis_gmor(w, a_obj, b_obj, fi)
                                        for gi in range(self.hom_rank(v, b_obj, c_obj)):
                                            g = self.basis_gmor(v, b_obj, c_obj, gi)
                                            for hi in range(self.hom_rank(u, c_obj, d_obj)):
                                                h = self.basis_gmor(u, c_obj, d_obj, hi)
                                                lhs = self.mu(self.mu(h, g), f)
                                                rhs = self.mu(h, self.mu(g, f))
                                                if lhs != rhs:
                                                    return (u, v, w, a_obj, b_obj, c_obj,
                                                            d_obj, fi, gi, hi)
        return None

    def unit_defect(self):
        P = self.P
        base = P.base
        for u in base.arrow_ids:
            for a in self.objects(base.src(u)):
                for b in self.objects(base.tgt(u)):
                    for i in range(self.hom_rank(u, a, b)):
                        m = self.basis_gmor(u, a, b, i)
                        if self.mu(m, self.identity_gmor(base.src(u), a)) != m:
                            return (u, a, b, i, "right")
                        if self.mu(self.identity_gmor(base.tgt(u), b), m) != m:
                            return (u, a, b, i, "left")
        return None


class GradedBimodule:
    """The graded bimodule of a prestack bimodule: values over M^V(A, u*B)."""

    def __init__(self, prestack, bimodule):
        self.P = prestack
        self.M = bimodule
        self.field = prestack.field

    def rank(self, u, a, b):
        P = self.P
        v_obj = P.base.src(u)
        return self.M.rank(v_obj, a, P.restriction(u).on_obj(b))

    def left_mu(self, b, v, a_obj, c_obj, vec):
        """mu(b, x) for b graded u from C to D, x a value in M~_v(A, C)."""
        P, M = self.P, self.M
        base = P.base
        u = b.grading
        if base.src(u) != base.tgt(v):
            raise ValueError("gradings not composable in left action")
        w_obj = base.src(v)
        gc = GradedCategory(P)
        vb = P.restriction(v).apply(gc.as_fiber_mor(b))
        y = M.left_act(w_obj, a_obj, vb, vec)
        tw = P.twist(v, u).at(b.tgt_obj)
        return M.left_act(w_obj, a_obj, tw, y)

    def right_mu(self, v, b_obj, c_obj, vec, a):
        """mu(x, a) for x a value in M~_v(B, C), a graded w from A to B."""
        P, M = self.P, self.M
        base = P.base
        w = a.grading
        if base.src(v) != base.tgt(w):
            raise ValueError("gradings not composable in right action")
        t_obj = base.src(w)
        fv = P.restriction(v)
        fw = P.restriction(w)
        y = M.restrict(w, b_obj, fv.on_obj(c_obj), vec)
        tw = P.twist(w, v).at(c_obj)
        z = M.left_act(t_obj, fw.on_obj(b_obj), tw, y)
        gc = GradedCategory(P)
        return M.right_act(t_obj, P.restriction(base.then(w, v)).on_obj(c_obj),
                           z, fw.on_obj(b_obj), gc.as_fiber_mor(a))


class GradedComplex(ComplexBase):
    """The Hochschild complex of the graded category with graded coefficients."""

    def __init__(self, prestack, bimodule=None):
        super().__init__(prestack.field)
        self.P = prestack
        self.M = bimodule if bimodule is not None else diagonal_bimodule(prestack)
        self.G = GradedCategory(prestack)
        self.GM = GradedBimodule(prestack, self.M)
        self._rank_cache = {}

    # cells: (simplex, objects, btuple) with objects (A_0..A_n), A_i over U_i;
    # entry slot i (1-based) is graded by arrow u_{n+1-i}.

    def value_rank(self, key):
        simplex, objects = key[0], key[1]
        ck = (simplex, objects)
        r = self._rank_cache.get(ck)
        if r is None:
            comp = self.P.base.composite(simplex)
            r = self.GM.rank(comp, objects[0], objects[-1])
            self._rank_cache[ck] = r
        return r

    def entry_rank(self, simplex, objects, i):
        n = simplex.p
        u = simplex.arrows[n - i]
        return self.G.hom_rank(u, objects[n - i], objects[n - i + 1])

    def arg_gmor(self, simplex, objects, btuple, i):
        n = simplex.p
        u = simplex.arrows[n - i]
        return self.G.basis_gmor(u, objects[n - i], objects[n - i + 1], btuple[i - 1])

    def cells(self, n):
        if n in self._cells:
            return self._cells[n]
        P = self.P
        out = []
        for simplex in P.base.nerve(n):
            obj_lists = [self.G.objects(u) for u in P.base.objects_along(simplex)]
            for objects in product(*obj_lists):
                ranks = [self.entry_rank(simplex, objects, i) for i in range(1, n + 1)]
                if any(r == 0 for r in ranks):
                    continue
                if self.value_rank((simplex, objects, None)) == 0:
                    continue
                for btuple in product(*[range(r) for r in ranks]):
                    out.append((simplex, objects, btuple))
        self._cells[n] = out
        return out

    def diff_contributions(self, key, n):
        P = self.P
        F = self.field
        base = P.base
        simplex, objects, btuple = key
        args = [self.arg_gmor(simplex, objects, btuple, i) for i in range(1, n + 1)]

        # i = 0: mu(a_1, psi(a_2..a_n))
        sub = Simplex(simplex.source, simplex.arrows[:-1])
        in_key = (sub, objects[:-1], btuple[1:])
        v = base.composite(sub)
        a1 = args[0]
        yield in_key, 1, (lambda vec, a1=a1, v=v:
                          self.GM.left_mu(a1, v, objects[0], objects[-2], vec))

        # middle merges
        for i in range(1, n):
            merged = self.G.mu(args[i - 1], args[i])
            lo = n - i - 1
            new_objects = objects[: lo + 1] + objects[lo + 2 :]
            new_simplex = base.face(simplex, n - i)
            sgn = -1 if i % 2 else 1
            for bm, coeff in enumerate(merged.coords):
                if F.is_zero(coeff):
                    continue
                nb = btuple[: i - 1] + (bm,) + btuple[i + 1 :]
                in_key = (new_simplex, new_objects, nb)
                yield in_key, sgn, (lambda vec, c=coeff: [F.mul(c, v) for v in vec])

        # i = n: mu(psi(a_1..a_{n-1}), a_n)
        sub = Simplex(base.tgt(simplex.arrows[0]), simplex.arrows[1:])
        in_key = (sub, objects[1:], btuple[:-1])
        v = base.composite(sub)
        an = args[n - 1]
        sgn = -1 if n % 2 else 1
        yield in_key, sgn, (lambda vec, an=an, v=v:
                            self.GM.right_mu(v, objects[1], objects[-1], vec, an))


# -- formal chains --------------------------------------------------------------


@dataclass(frozen=True)
class StringEntry:
    """One tensor slot of a formal string: a graded morphism."""

    grading: str
    src_obj: str
    tgt_obj: str
    coords: tuple

    def as_gmor(self):
        return GMor(self.grading, self.src_obj, self.tgt_obj, self.coords)


def entry_from_gmor(g):
    return StringEntry(g.grading, g.src_obj, g.tgt_obj, tuple(g.coords))


def string_simp(base, entries):
    """The underlying base simplex: gradings reversed into chain order."""
    arrows = tuple(e.grading for e in reversed(entries))
    if not arrows:
        raise ValueError("empty string has no simplex")
    return Simplex(base.src(arrows[0]), arrows)


def string_objects(entries):
    """Object chain source-first: A_0, ..., A_n."""
    objs = [e.src_obj for e in reversed(entries)]
    objs.append(entries[0].tgt_obj)
    return objs


class GradedChain:
    """An integer combination of tensor strings (tuples of StringEntry)."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for coeff, string in terms:
                self.add(coeff, string)

    def add(self, coeff, string):
        string = tuple(string)
        cur = self.terms.get(string, 0) + coeff
        if cur == 0:
            self.terms.pop(string, None)
        else:
            self.terms[string] = cur

    def add_chain(self, other, scale=1):
        for string, coeff in other.terms.items():
            self.add(scale * coeff, string)
        return self

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GradedChain):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self):
        return len(self.terms)


def chain_face(P, string, i):
    """The i-th face of a string: drop an end or merge two adjacent entries."""
    n = len(string)
    if n <= 1:
        raise ValueError("faces of strings need length >= 2")
    if not (0 <= i <= n):
        raise IndexError("face index out of range")
    if i == 0:
        return string[1:]
    if i == n:
        return string[:-1]
    gc = GradedCategory(P)
    merged = gc.mu(string[i - 1].as_gmor(), string[i].as_gmor())
    return string[: i - 1] + (entry_from_gmor(merged),) + string[i + 1 :]


def chain_face_sum(P, chain, i):
    out = GradedChain()
    for string, coeff in chain.terms.items():
        out.add(coeff, chain_face(P, string, i))
    return out


def chain_concat(x, y):
    """Concatenation: y is the source-side piece appended after x."""
    if x and y and y[0].tgt_obj != x[-1].src_obj:
        raise ValueError("strings not concatenable")
    return tuple(x) + tuple(y)


def eval_on_string(complex_, psi, string):
    """Evaluate a cochain on one string, multilinearly over entry coordinates.

    Returns (value_vector, value_module_signature) or None when the string's
    length does not match the cochain degree or its cells carry rank zero.
    """
    F = complex_.field
    if len(string) != psi.degree:
        return None
    simp = string_simp(complex_.P.base, list(string))
    objects = tuple(string_objects(list(string)))
    gmors = [complex_.G.as_fiber_mor(e.as_gmor()) for e in string]
    rank = complex_.value_rank((simp, objects, None))
    acc = [F.zero] * rank
    for coeff, nb in expand_multilinear(F, gmors):
        key = (simp, objects, nb)
        vec = psi.data.get(key)
        if vec is None:
            continue
        for k, v in enumerate(vec):
            acc[k] = F.add(acc[k], F.mul(coeff, v))
    comp = complex_.P.base.composite(simp)
    return acc, (comp, objects[0], objects[-1])


def eval_on_chain(complex_, psi, chain):
    """Linear extension of evaluation; strings of the wrong length give zero.

    All contributing strings must share the value module; mixing modules is a
    type error and raises.
    """
    F = complex_.field
    acc = None
    sig = None
    for string, coeff in chain.terms.items():
        res = eval_on_string(complex_, psi, string)
        if res is None:
            continue
        vec, s = res
        if acc is None:
            acc = [F.zero] * len(vec)
            sig = s
        elif s != sig:
            raise ValueError("chain mixes value modules %r and %r" % (sig, s))
        c = F.from_int(coeff)
        for k, v in enumerate(vec):
            acc[k] = F.add(acc[k], F.mul(c, v))
    return acc
