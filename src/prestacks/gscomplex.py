"""The twisted Gerstenhaber-Schack complex.

Cochains are keyed by (base simplex, fiber object tuple, hom basis tuple);
the value at a key is a coordinate vector in M^{U_0}(sigma^star A_0,
sigma^* A_q).  The total differential is d = d_Hoch + (-1)^n d_simp plus the
higher components built from paths and evaluation shuffles.
"""

from __future__ import annotations

from itertools import product

from .combinatorics import enumerate_shuffles, paths_or_trivial
from .complexbase import ComplexBase, pull_apply
from .lincat import diagonal_bimodule


def eval_shuffle(P, path, entries, objects, word):
    """Shuffle a fiber simplex through a path of twist transforms, evaluating.

    ``entries`` lists the fiber morphisms target-first, ``objects`` the object
    chain source-first.  ``word`` has 0 for a fiber token and 1 for a path
    token, in output order (target-first).  Returns (entries, objects) of the
    shuffled simplex in the fiber at the path's codomain end.
    """
    base = P.base
    steps = path.steps(base)
    chains = [path.arrows]
    cur = path.arrows
    for (c, i) in steps:
        cur = c[: i - 1] + (base.then(c[i - 1], c[i]),) + c[i + 1 :]
        chains.append(cur)
    m = path.n
    top_obj = base.tgt(path.arrows[-1])
    consumed_f = 0
    consumed_p = 0
    cur_obj = objects[-1]
    out = []
    for tok in word:
        if tok == 0:
            x = entries[consumed_f]
            fun = P.stars(chains[m - 1 - consumed_p], end_obj=top_obj)
            out.append(fun.apply(x))
            consumed_f += 1
            cur_obj = objects[len(objects) - 1 - consumed_f]
        else:
            j = consumed_p + 1  # next displayed path entry r_j
            chain_before, i = steps[m - j - 1]
            eps = P.epsilon_for(chain_before, i)
            out.append(eps.at(cur_obj))
            consumed_p += 1
    if not out:
        fun = P.stars(chains[-1], end_obj=top_obj)
        return [], [fun.on_obj(objects[-1])]
    out_objects = [e.src for e in reversed(out)]
    out_objects.append(out[0].tgt)
    return out, out_objects


def expand_multilinear(field, mors):
    """Multilinear expansion of a morphism tuple over basis index tuples.

    Yields (coefficient, basis index tuple); tuples with a zero factor are
    skipped.  Slot order matches the input order.
    """
    supports = []
    for m in mors:
        sup = [(i, c) for i, c in enumerate(m.coords) if not field.is_zero(c)]
        if not sup:
            return
        supports.append(sup)
    for combo in product(*supports):
        coeff = field.one
        for _, c in combo:
            coeff = field.mul(coeff, c)
        yield coeff, tuple(i for i, _ in combo)


class GSComplex(ComplexBase):
    """Cells, differential and matrix assembly of the GS complex of (P, M)."""

    def __init__(self, prestack, bimodule=None):
        super().__init__(prestack.field)
        self.P = prestack
        self.M = bimodule if bimodule is not None else diagonal_bimodule(prestack)
        self._rank_cache = {}

    # -- cells -----------------------------------------------------------------

    def value_module(self, simplex, objects):
        """(U0, B, A) locating M^{U0}(sigma^star A_0, sigma^* A_q)."""
        P = self.P
        u0 = simplex.source
        b = P.sigma_upper(simplex).on_obj(objects[0])
        a = P.sigma_lower(simplex).on_obj(objects[-1])
        return u0, b, a

    def value_rank(self, key):
        simplex, objects = key[0], key[1]
        ck = (simplex, objects)
        r = self._rank_cache.get(ck)
        if r is None:
            u0, b, a = self.value_module(simplex, objects)
            r = self.M.rank(u0, b, a)
            self._rank_cache[ck] = r
        return r

    def arg_mor(self, simplex, objects, btuple, i):
        """The i-th argument (1-based): basis b_i of hom(A_{q-i}, A_{q-i+1})."""
        q = len(btuple)
        fib = self.P.fiber(self.P.base.objects_along(simplex)[-1])
        return fib.basis_mor(objects[q - i], objects[q - i + 1], btuple[i - 1])

    def cells(self, n):
        if n in self._cells:
            return self._cells[n]
        P = self.P
        out = []
        for p in range(0, n + 1):
            q = n - p
            for simplex in P.base.nerve(p):
                top = P.base.objects_along(simplex)[-1]
                fib = P.fiber(top)
                for objects in product(fib.objects, repeat=q + 1):
                    ranks = [fib.rank(objects[q - i], objects[q - i + 1])
                             for i in range(1, q + 1)]
                    if any(r == 0 for r in ranks):
                        continue
                    if self.value_rank((simplex, objects, None)) == 0:
                        continue
                    for btuple in product(*[range(r) for r in ranks]):
                        out.append((simplex, objects, btuple))
        self._cells[n] = out
        return out

    # -- the differential --------------------------------------------------------

    def diff_contributions(self, key, n):
        """Yield (input_key, sign, op) for the degree-n output cell ``key``."""
        P, M = self.P, self.M
        F = self.field
        base = P.base
        simplex, objects, btuple = key
        p = simplex.p
        q = len(btuple)
        u0 = simplex.source
        top = base.objects_along(simplex)[-1]
        fib = P.fiber(top)
        args = [self.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
        sgn_simp = -1 if n % 2 else 1  # (-1)^n on d_simp

        # d_Hoch from C^{p, q-1}
        if q >= 1:
            a1 = P.sigma_lower(simplex).apply(args[0])
            in_key = (simplex, objects[:-1], btuple[1:])
            b_obj = P.sigma_upper(simplex).on_obj(objects[0])
            yield in_key, 1, (lambda vec, a1=a1, b=b_obj: M.left_act(u0, b, a1, vec))
            for i in range(1, q):
                merged = fib.compose(args[i - 1], args[i])
                lo = q - i - 1  # merged morphism spans objects[lo] -> objects[lo+2]
                new_objects = objects[: lo + 1] + objects[lo + 2 :]
                sgn = -1 if i % 2 else 1
                for bm, coeff in enumerate(merged.coords):
                    if F.is_zero(coeff):
                        continue
                    nb = btuple[: i - 1] + (bm,) + btuple[i + 1 :]
                    in_key = (simplex, new_objects, nb)
                    yield in_key, sgn, (lambda vec, c=coeff:
                                        [F.mul(c, v) for v in vec])
            aq = P.sigma_upper(simplex).apply(args[q - 1])
            in_key = (simplex, objects[1:], btuple[:-1])
            a_obj = P.sigma_lower(simplex).on_obj(objects[-1])
            b_old = P.sigma_upper(simplex).on_obj(objects[1])
            sgn = -1 if q % 2 else 1
            yield in_key, sgn, (lambda vec, aq=aq, a=a_obj, b=b_old:
                                M.right_act(u0, a, vec, b, aq))

        # (-1)^n d_simp from C^{p-1, q}
        if p >= 1:
            d0 = base.face(simplex, 0)
            c1 = P.c_sigma_k(simplex, 1).at(objects[-1])
            u1 = simplex.arrows[0]
            in_key = (d0, objects, btuple)
            bsub = P.sigma_upper(d0).on_obj(objects[0])
            asub = P.sigma_lower(d0).on_obj(objects[-1])

            def op_simp0(vec, u1=u1, bsub=bsub, asub=asub, c1=c1):
                w = M.restrict(u1, bsub, asub, vec)
                return M.left_act(u0, P.restriction(u1).on_obj(bsub), c1, w)

            yield in_key, sgn_simp, op_simp0
            for i in range(1, p):
                di = base.face(simplex, i)
                eps = P.epsilon_sigma_i(simplex, i).at(objects[0])
                in_key = (di, objects, btuple)
                a_obj = P.sigma_lower(di).on_obj(objects[-1])
                b_old = P.sigma_upper(di).on_obj(objects[0])
                sgn = sgn_simp * (-1 if i % 2 else 1)
                yield in_key, sgn, (lambda vec, e=eps, a=a_obj, b=b_old:
                                    M.right_act(u0, a, vec, b, e))
            dp = base.face(simplex, p)
            cp = P.c_sigma_k(simplex, p - 1).at(objects[-1])
            up = P.restriction(simplex.arrows[-1])
            sgn = sgn_simp * (-1 if p % 2 else 1)
            restr_args = [up.apply(a) for a in args]
            new_objects = tuple(up.on_obj(o) for o in objects)
            b_obj = P.sigma_upper(dp).on_obj(new_objects[0])
            for coeff, nb in expand_multilinear(F, restr_args):
                in_key = (dp, new_objects, nb)
                yield in_key, sgn, (lambda vec, c=coeff, cp=cp, b=b_obj:
                                    M.left_act(u0, b, cp, [F.mul(c, v) for v in vec]))

        # higher components d_j from C^{p-j, q+j-1}, 2 <= j <= p
        for j in range(2, p + 1):
            pp = p - j
            t = q
            Lsimp = base.left_part(simplex, pp)
            Rsimp = base.right_part(simplex, pp)
            c_pref = P.c_sigma_k(simplex, pp).at(objects[-1])
            sgn_t = -1 if t % 2 else 1
            for path in paths_or_trivial(Rsimp.arrows):
                for beta in enumerate_shuffles((t, j - 1)):
                    sh_entries, sh_objects = eval_shuffle(
                        P, path, args, list(objects), beta.word)
                    sgn = sgn_t * path.sign * beta.sign
                    b_obj = P.sigma_upper(Lsimp).on_obj(sh_objects[0])
                    for coeff, nb in expand_multilinear(F, sh_entries):
                        in_key = (Lsimp, tuple(sh_objects), nb)
                        yield in_key, sgn, (lambda vec, c=coeff, cp=c_pref, b=b_obj:
                                            M.left_act(u0, b, cp,
                                                       [F.mul(c, v) for v in vec]))

    # -- individual components -------------------------------------------------

    def _component(self, phi, j):
        """The terms of d that raise the simplicial degree by exactly j."""
        n = phi.degree + 1

        def contrib(key):
            p = key[0].p
            return (t for t in self.diff_contributions(key, n) if p - t[0][0].p == j)

        return pull_apply(contrib, self, n, phi)

    def d_hoch(self, phi):
        """The Hochschild component, raising the fiber degree."""
        return self._component(phi, 0)

    def d_simp(self, phi):
        """The simplicial component, without the total differential's sign."""
        out = self._component(phi, 1)
        return out.scaled(self.field.from_int(-1)) if out.degree % 2 else out

    def d_higher(self, phi, j):
        """The component raising the simplicial degree by j >= 2."""
        if j < 2:
            raise ValueError("higher components start at j = 2")
        return self._component(phi, j)

    def d_total(self, phi):
        return self.apply_diff(phi)

    # -- normalized / reduced -------------------------------------------------

    def is_reduced(self, phi):
        base = self.P.base
        F = self.field
        for (simplex, _, _), vec in phi.data.items():
            if base.is_degenerate(simplex) and any(not F.is_zero(v) for v in vec):
                return False
        return True

    def is_normalized(self, phi):
        """True iff phi vanishes whenever some argument is an identity morphism."""
        F = self.field
        by_family = {}
        for (simplex, objects, btuple), vec in phi.data.items():
            by_family.setdefault((simplex, objects), {})[btuple] = vec
        for (simplex, objects), entries in by_family.items():
            q = len(objects) - 1
            top = self.P.base.objects_along(simplex)[-1]
            fib = self.P.fiber(top)
            for slot in range(1, q + 1):
                if objects[q - slot] != objects[q - slot + 1]:
                    continue
                ident = fib.identity_coords[objects[q - slot]]
                sums = {}
                for btuple, vec in entries.items():
                    c = ident[btuple[slot - 1]]
                    if F.is_zero(c):
                        continue
                    rest = btuple[: slot - 1] + btuple[slot:]
                    acc = sums.setdefault(rest, [F.zero] * len(vec))
                    for i, v in enumerate(vec):
                        acc[i] = F.add(acc[i], F.mul(c, v))
                for acc in sums.values():
                    if any(not F.is_zero(v) for v in acc):
                        return False
        return True

    def nr_keys(self, n):
        """Cells spanning the normalized reduced subcomplex.

        Requires every fiber identity to be a basis vector of its hom module.
        """
        P = self.P
        base = P.base
        id_idx = {}
        for u in base.objects:
            fib = P.fiber(u)
            for a in fib.objects:
                idx = fib.identity_basis_index(a)
                if idx is None:
                    raise ValueError(
                        "fiber %s: identity of %s is not a basis vector; "
                        "nr basis enumeration unavailable" % (u, a))
                id_idx[(u, a)] = idx
        out = []
        for key in self.cells(n):
            simplex, objects, btuple = key
            if base.is_degenerate(simplex):
                continue
            q = len(btuple)
            top = base.objects_along(simplex)[-1]
            normal = False
            for slot in range(1, q + 1):
                if objects[q - slot] == objects[q - slot + 1] and \
                        btuple[slot - 1] == id_idx[(top, objects[q - slot])]:
                    normal = True
                    break
            if not normal:
                out.append(key)
        return out

    def nr_matrix(self, n):
        """The differential restricted to the normalized reduced subcomplex."""
        return self.matrix(n, keys_in=self.nr_keys(n - 1), keys_out=self.nr_keys(n))

    def nr_closure_defect(self, phi):
        """Keys outside nr where d(phi) is nonzero, for nr-supported phi."""
        img = self.apply_diff(phi)
        nr = set(self.nr_keys(phi.degree + 1))
        F = self.field
        return [k for k, vec in img.data.items()
                if k not in nr and any(not F.is_zero(v) for v in vec)]
