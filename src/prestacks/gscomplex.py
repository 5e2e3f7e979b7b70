"""The twisted Gerstenhaber-Schack complex.

Cochains are keyed by (base simplex, fiber object tuple, hom basis tuple);
the value at a key is a coordinate vector in the hom module
A(U_0)(sigma^star A_0, sigma^* A_q) of the fiber over the simplex's source:
the coefficients are the prestack itself.  The total differential is
d = d_Hoch + (-1)^n d_simp plus the higher components d_j, 2 <= j <= p.

d_j at a cell whose simplex has right part R (j arrows) and q arguments is a
signed sum over every path of whiskered twists on R and every
(q, j-1)-shuffle.  Neither the (j-1)! paths nor the shuffle words are
listed.  A word is read target-first from the fully composed chain: a fiber
token applies the star functor of the current coarsening of R (its set of
interior cuts) to the next argument, and a path token un-merges one interval
at a cut c: the coarsening ``pred`` with c added merges back at index i, and
the token contributes ``epsilon_for(pred, i)`` with the step sign (-1)^[i odd],
whose product along a path is ``Path.sign``.  A shuffle's inversions are, over
its path tokens, the number of fiber tokens after each, so its sign factors
per step too: a path token read after f fiber tokens also carries (-1)^(q-f).
Every step then depends only on the state (cuts, f), and the sum over all
paths and words is dynamic programming over at most 2^(j-1) (q+1) such
states, from (no cuts, 0) to (all cuts, q), with the overall sign (-1)^q.
The sum reads only R, the objects and the basis tuple, so it is memoized on
them for the life of the complex.  The terms are summed per input cell and
d_j yields one term per input cell.
"""

from __future__ import annotations

from itertools import product

from .combinatorics import _check_cap, enumerate_shuffles
from .complexbase import ComplexBase
from .lincat import compose_blocks, scale_block, unit_block


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
    """Cells, differential and matrix assembly of the GS complex of P with
    coefficients in P itself."""

    def __init__(self, prestack):
        super().__init__(prestack.field)
        self.P = prestack
        self._higher = {}  # (R, objects, btuple) -> d_j terms without the left part
        self._canon = {}  # one copy of each object and basis tuple the memo holds
        self._shapes = set()  # (q, j-1)-shuffle shapes the cap has let through

    # -- cells -----------------------------------------------------------------

    def value_module(self, simplex, objects):
        """(U0, B, A) locating the value module A(U0)(sigma^star A_0, sigma^* A_q)."""
        P = self.P
        u0 = simplex.source
        b = P.sigma_upper(simplex).on_obj(objects[0])
        a = P.sigma_lower(simplex).on_obj(objects[-1])
        return u0, b, a

    def _rank(self, simplex, objects):
        u0, b, a = self.value_module(simplex, objects)
        return self.P.fiber(u0).rank(b, a)

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
        """Yield (input_key, block) for the degree-n output cell ``key``."""
        P = self.P
        F = self.field
        base = P.base
        simplex, objects, btuple = key
        p = simplex.p
        q = len(btuple)
        u0 = simplex.source
        fib0 = P.fiber(u0)
        top = base.objects_along(simplex)[-1]
        fib = P.fiber(top)
        args = [self.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
        sgn_simp = -1 if n % 2 else 1  # (-1)^n on d_simp

        # d_Hoch from C^{p, q-1}
        if q >= 1:
            a1 = P.sigma_lower(simplex).apply(args[0])
            in_key = (simplex, objects[:-1], btuple[1:])
            b_obj = P.sigma_upper(simplex).on_obj(objects[0])
            yield in_key, fib0.left_block(b_obj, a1)
            rank = self.value_rank(key)
            for i in range(1, q):
                merged = fib.compose(args[i - 1], args[i])
                lo = q - i - 1  # merged morphism spans objects[lo] -> objects[lo+2]
                new_objects = objects[: lo + 1] + objects[lo + 2 :]
                for bm, coeff in enumerate(merged.coords):
                    if F.is_zero(coeff):
                        continue
                    nb = btuple[: i - 1] + (bm,) + btuple[i + 1 :]
                    in_key = (simplex, new_objects, nb)
                    yield in_key, unit_block(F, rank, coeff, -1 if i % 2 else 1)
            aq = P.sigma_upper(simplex).apply(args[q - 1])
            in_key = (simplex, objects[1:], btuple[:-1])
            a_obj = P.sigma_lower(simplex).on_obj(objects[-1])
            yield in_key, scale_block(F, F.one, fib0.right_block(a_obj, aq),
                                      -1 if q % 2 else 1)

        # (-1)^n d_simp from C^{p-1, q}
        if p >= 1:
            d0 = base.face(simplex, 0)
            c1 = P.c_sigma_k(simplex, 1).at(objects[-1])
            u1 = simplex.arrows[0]
            in_key = (d0, objects, btuple)
            bsub = P.sigma_upper(d0).on_obj(objects[0])
            asub = P.sigma_lower(d0).on_obj(objects[-1])
            fu1 = P.restriction(u1)
            block = compose_blocks(F, fib0.left_block(fu1.on_obj(bsub), c1),
                                   fu1.block(bsub, asub))
            yield in_key, scale_block(F, F.one, block, sgn_simp)
            for i in range(1, p):
                di = base.face(simplex, i)
                eps = P.epsilon_sigma_i(simplex, i).at(objects[0])
                in_key = (di, objects, btuple)
                a_obj = P.sigma_lower(di).on_obj(objects[-1])
                yield in_key, scale_block(F, F.one, fib0.right_block(a_obj, eps),
                                          sgn_simp * (-1 if i % 2 else 1))
            dp = base.face(simplex, p)
            cp = P.c_sigma_k(simplex, p - 1).at(objects[-1])
            up = P.restriction(simplex.arrows[-1])
            sgn = sgn_simp * (-1 if p % 2 else 1)
            restr_args = [up.apply(a) for a in args]
            new_objects = tuple(up.on_obj(o) for o in objects)
            block = fib0.left_block(P.sigma_upper(dp).on_obj(new_objects[0]), cp)
            for coeff, nb in expand_multilinear(F, restr_args):
                in_key = (dp, new_objects, nb)
                yield in_key, scale_block(F, coeff, block, sgn)

        # higher components d_j from C^{p-j, q+j-1}, 2 <= j <= p: one term per input cell
        for j in range(2, p + 1):
            c_pref = P.c_sigma_k(simplex, p - j).at(objects[-1])
            for in_key, coeff in self.higher_terms(key, j).items():
                b_obj = P.sigma_upper(in_key[0]).on_obj(in_key[1][0])
                yield in_key, scale_block(F, coeff, fib0.left_block(b_obj, c_pref))

    def higher_terms(self, key, j):
        """The component d_j at the output cell ``key`` as {input key: coefficient}.

        The sum over every path on the right part R of the simplex and every
        (q, j-1)-shuffle runs as dynamic programming over the states
        (coarsening of R, fiber tokens read); see the module docstring.  It
        reads only R, the objects and the basis tuple, so it is memoized on
        them for the life of the complex, with the input keys stored without
        their left part; the left part is attached on each call, to a fresh
        dict.  Zero sums are left out.  Each shuffle shape is still listed
        once per complex, and its words are not read: the listing refuses a
        shape over ``PRESTACKS_ENUM_CAP`` with the same error, at the same
        first use, as when the sum ran word by word.
        """
        simplex, objects, btuple = key
        q = len(btuple)
        pp = simplex.p - j
        _check_cap(j)  # the same refusal as listing the paths on R
        shape = (q, j - 1)
        if shape not in self._shapes:
            enumerate_shuffles(shape)
            self._shapes.add(shape)
        memo_key = (simplex.arrows[pp:], objects, btuple)
        terms = self._higher.get(memo_key)
        if terms is None:
            terms = self._higher[memo_key] = self._higher_sum(key, j)
        Lsimp = self.P.base.left_part(simplex, pp)
        return {(Lsimp, sh_objects, nb): v for sh_objects, nb, v in terms}

    def _higher_sum(self, key, j):
        """The terms of d_j at ``key`` as (input objects, input btuple, coefficient)."""
        P, F = self.P, self.field
        base = P.base
        simplex, objects, btuple = key
        q = len(btuple)
        R = simplex.arrows[simplex.p - j:]
        args = [self.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
        full = (1 << (j - 1)) - 1
        chains = {}

        def chain(cuts):
            """The coarsening of R with cuts at the set bits (bit c-1: after R[c-1])."""
            out = chains.get(cuts)
            if out is None:
                out = [R[0]]
                for c in range(1, j):
                    if cuts >> (c - 1) & 1:
                        out.append(R[c])
                    else:
                        out[-1] = base.then(out[-1], R[c])
                out = chains[cuts] = tuple(out)
            return out

        def prepend(mor, sgn, tail, acc):
            for b, c in enumerate(mor.coords):
                if F.is_zero(c):
                    continue
                if sgn < 0:
                    c = F.neg(c)
                entry = (mor.src, mor.tgt, b)
                for k, v in tail.items():
                    k = (entry,) + k
                    prev = acc.get(k)
                    v = F.mul(c, v)
                    acc[k] = v if prev is None else F.add(prev, v)

        memo = {(full, q): {(): F.one}}

        def suffix(cuts, f):
            """Sum over the ways to read the rest of every word from the
            coarsening ``cuts`` after f fiber tokens: {((src, tgt, basis), ...): coeff}."""
            hit = memo.get((cuts, f))
            if hit is not None:
                return hit
            acc = {}
            if f < q:
                mor = P.stars(chain(cuts)).apply(args[f])
                prepend(mor, 1, suffix(cuts, f + 1), acc)
            sgn_f = -1 if (q - f) % 2 else 1  # fiber tokens after this path token
            for c in range(1, j):
                bit = 1 << (c - 1)
                if cuts & bit:
                    continue
                i = 1 + bin(cuts & (bit - 1)).count("1")  # merge index in pred
                pred = cuts | bit
                mor = P.epsilon_for(chain(pred), i).at(objects[-1 - f])
                prepend(mor, sgn_f * (-1 if i % 2 else 1), suffix(pred, f), acc)
            memo[(cuts, f)] = acc
            return acc

        canon = self._canon
        out = []
        for k, v in suffix(0, 0).items():
            if not F.is_zero(v):
                sh_objects = tuple(e[0] for e in reversed(k)) + (k[0][1],)
                nb = tuple(e[2] for e in k)
                out.append((canon.setdefault(sh_objects, sh_objects), canon.setdefault(nb, nb),
                            F.neg(v) if q % 2 else v))
        return tuple(out)

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
