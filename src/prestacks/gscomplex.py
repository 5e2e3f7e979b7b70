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
That sum is ``path_shuffle_sum``; the Seq construction of the comparison
maps is the same sum on each block of a partition (``shapes.seq_vector``).
It reads only R, the objects and the basis tuple, so d_j memoizes it on them
for the life of the complex.  The terms are summed per input cell and
d_j yields one term per input cell.

The differential is assembled frame by frame (see ``complexbase``).  A frame
(simplex, objects) fixes the star functors, the input simplices and objects of
every term, the d_simp blocks of face 0 and of the middle faces, d_p's block
and sign, and the twist c_pref of each d_j.  d_Hoch is the bar kernel
``_bar_terms`` over the frame, with sigma_* a_1 acting on the left of the
source fiber, the composites in the top fiber and sigma^* a_q acting on the
right with (-1)^q.  Only the argument blocks read the basis tuple: besides
the bar kernel's, d_p's restricted supports by (i, b_i) and d_j's left
blocks by input object, each memoized for the frame; an argument's image
under a functor is a column of its matrix.
"""

from __future__ import annotations

from itertools import product

from .combinatorics import Memo, _check_cap, enumerate_shuffles
from .complexbase import ComplexBase, text_order
from .lincat import compose_blocks, scale_block


def expand_multilinear(field, mors):
    """Multilinear expansion of a morphism tuple over basis index tuples.

    Yields (coefficient, basis index tuple); tuples with a zero factor are
    skipped.  Slot order matches the input order.
    """
    return expand_supports(field, [[(i, c) for i, c in enumerate(m.coords)
                                    if not field.is_zero(c)] for m in mors])


def expand_supports(field, supports):
    """``expand_multilinear`` on the morphisms' nonzero (index, coordinate) lists."""
    for combo in product(*supports):
        coeff = field.one
        for _, c in combo:
            coeff = field.mul(coeff, c)
        yield coeff, tuple(i for i, _ in combo)


def path_shuffle_sum(P, R, objects, btuple):
    """The sum over every path of whiskered twists on the arrow chain R and
    every (q, j-1)-shuffle of its tokens with the q basis arguments
    ``btuple`` between ``objects``, as {(objects, btuple): coeff} without
    zeros, in the cell conventions (objects source-first, arguments
    target-first).  A word carries its path sign times its shuffle sign; d_j
    multiplies the sum by (-1)^q.  It is dynamic programming over the states
    (coarsening of R, fiber tokens read); see the module docstring.
    """
    F = P.field
    base = P.base
    j, q = len(R), len(btuple)
    full = (1 << (j - 1)) - 1

    def coarsening(cuts):
        """The coarsening of R with cuts at the set bits (bit c-1: after R[c-1])."""
        out = [R[0]]
        for c in range(1, j):
            if cuts >> (c - 1) & 1:
                out.append(R[c])
            else:
                out[-1] = base.then(out[-1], R[c])
        return tuple(out)

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

    def suffix(state):
        """Sum over the ways to read the rest of every word from the state
        (cuts, f), the coarsening ``cuts`` after f fiber tokens:
        {((src, tgt, basis), ...): coeff}, kept in ``sums``."""
        cuts, f = state
        acc = {}
        if f < q:
            mor = P.stars(chains[cuts]).basis_image(objects[q - f - 1], objects[q - f],
                                                    btuple[f])
            prepend(mor, 1, sums[(cuts, f + 1)], acc)
        sgn_f = -1 if (q - f) % 2 else 1  # fiber tokens after this path token
        for c in range(1, j):
            bit = 1 << (c - 1)
            if cuts & bit:
                continue
            i = 1 + bin(cuts & (bit - 1)).count("1")  # merge index in pred
            pred = cuts | bit
            mor = P.epsilon_for(chains[pred], i).at(objects[-1 - f])
            prepend(mor, sgn_f * (-1 if i % 2 else 1), sums[(pred, f)], acc)
        return acc

    chains, sums = Memo(coarsening), Memo(suffix)
    sums[(full, q)] = {(): F.one}
    # no entries only for j = 1, q = 0: the one object, moved along R
    return {(tuple(e[0] for e in reversed(k)) + (k[0][1],) if k
             else (P.stars(R).on_obj(objects[0]),), tuple(e[2] for e in k)): v
            for k, v in sums[(0, 0)].items() if not F.is_zero(v)}


class NrBasisError(ValueError):
    """A fiber identity is not a basis vector, so the nr cells cannot be listed."""


class GSComplex(ComplexBase):
    """Cells, differential and matrix assembly of the GS complex of P with
    coefficients in P itself."""

    def __init__(self, prestack):
        super().__init__(prestack.field)
        self.P = prestack
        self._higher = Memo(self._higher_sum)  # (R, objects, btuple) -> d_j terms
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

    def _new_frame(self, simplex, objects, n):
        """What every cell of the frame reads: the bar frame of d_Hoch, the
        d_simp blocks that do not read the arguments and memos for those that do."""
        P, F = self.P, self.field
        base = P.base
        p, q = simplex.p, len(objects) - 1
        fib0, fib = P.fiber(simplex.source), P.fiber(base.objects_along(simplex)[-1])
        lower, upper = P.sigma_lower(simplex), P.sigma_upper(simplex)
        b_obj, a_obj = upper.on_obj(objects[0]), lower.on_obj(objects[-1])

        def first(b):  # sigma_* a_1, a_1 in hom(A_{q-1}, A_q), on the left of fib0
            return fib0.left_block(b_obj, lower.basis_image(objects[-2], objects[-1], b))

        def last(b):  # sigma^* a_q, a_q in hom(A_0, A_1), on the right, with (-1)^q
            aq = upper.basis_image(objects[0], objects[1], b)
            return scale_block(F, F.one, fib0.right_block(a_obj, aq), -1 if q % 2 else 1)

        def merged(key):  # a_i a_{i+1} spans objects[lo] -> objects[lo + 2]
            i, b_i, b_next = key
            lo = q - i - 1
            return enumerate(fib.compose(fib.basis_mor(objects[lo + 1], objects[lo + 2], b_i),
                                         fib.basis_mor(objects[lo], objects[lo + 1], b_next)
                                         ).coords)

        fr = self._bar_frame(
            simplex, objects, (simplex, objects[:-1]), (simplex, objects[1:]),
            [(simplex, objects[:q - i] + objects[q - i + 1:]) for i in range(1, q)],
            first, last, merged)
        fr.faces, fr.dp, fr.higher = [], None, []
        if p >= 1:
            sgn_simp = -1 if n % 2 else 1  # (-1)^n on d_simp
            d0 = base.face(simplex, 0)
            c1 = P.c_sigma_k(simplex, 1).at(objects[-1])
            fu1 = P.restriction(simplex.arrows[0])
            bsub = P.sigma_upper(d0).on_obj(objects[0])
            asub = P.sigma_lower(d0).on_obj(objects[-1])
            block = compose_blocks(F, fib0.left_block(fu1.on_obj(bsub), c1),
                                   fu1.block(bsub, asub))
            fr.faces.append((d0, scale_block(F, F.one, block, sgn_simp)))
            for i in range(1, p):
                di = base.face(simplex, i)
                eps = P.epsilon_sigma_i(simplex, i).at(objects[0])
                a_sub = P.sigma_lower(di).on_obj(objects[-1])
                fr.faces.append((di, scale_block(F, F.one, fib0.right_block(a_sub, eps),
                                                 sgn_simp * (-1 if i % 2 else 1))))
            dp = base.face(simplex, p)
            up = P.restriction(simplex.arrows[-1])
            dp_objects = tuple(up.on_obj(o) for o in objects)
            cp = P.c_sigma_k(simplex, p - 1).at(objects[-1])
            dp_block = fib0.left_block(P.sigma_upper(dp).on_obj(dp_objects[0]), cp)
            sgn_p = sgn_simp * (-1 if p % 2 else 1)

            def support(key):  # the nonzero coordinates of up(a_i), a_i = basis b
                i, b = key
                col = up.mats[(objects[q - i], objects[q - i + 1])][b]
                return [(k, c) for k, c in enumerate(col) if not F.is_zero(c)]

            fr.dp = (dp, dp_objects, Memo(support),
                     Memo(lambda coeff: scale_block(F, coeff, dp_block, sgn_p)))

        def left_blocks(functor, c):  # A -> the block of c on the left of fib0 at functor(A)
            return Memo(lambda obj: fib0.left_block(functor.on_obj(obj), c))

        for j in range(2, p + 1):
            left = base.left_part(simplex, p - j)
            fr.higher.append((j, left, left_blocks(
                P.sigma_upper(left), P.c_sigma_k(simplex, p - j).at(objects[-1]))))
        return fr

    def diff_contributions(self, key, n):
        """Yield (input_key, block) for the degree-n output cell ``key``.

        Everything but the argument blocks comes from the cell's frame; the
        blocks are shared by the cells of the frame, so no consumer may
        mutate one.
        """
        F = self.field
        simplex, objects, btuple = key
        fr = self._frame(simplex, objects, n)

        # d_Hoch from C^{p, q-1}
        yield from self._bar_terms(fr, btuple)

        # (-1)^n d_simp from C^{p-1, q}
        for face, block in fr.faces:
            yield (face, objects, btuple), block
        if fr.dp is not None:
            dp, dp_objects, supports, dp_blocks = fr.dp
            for coeff, nb in expand_supports(
                    F, [supports[(i, b)] for i, b in enumerate(btuple, 1)]):
                yield (dp, dp_objects, nb), dp_blocks[coeff]

        # higher components d_j from C^{p-j, q+j-1}, 2 <= j <= p: one term per input cell
        for j, left, lefts in fr.higher:
            for in_objects, nb, coeff in self._right_terms(key, j):
                yield (left, in_objects, nb), scale_block(F, coeff, lefts[in_objects[0]])

    def _right_terms(self, key, j):
        """The terms of d_j at ``key`` as (input objects, input btuple, coefficient).

        The sum over every path on the right part R of the simplex and every
        (q, j-1)-shuffle runs as dynamic programming over the states
        (coarsening of R, fiber tokens read); see the module docstring.  It
        reads only R, the objects and the basis tuple, so it is memoized on
        them for the life of the complex.  Zero sums are left out.  Each
        shuffle shape is still listed once per complex, and its words are not
        read: the listing refuses a shape over ``PRESTACKS_ENUM_CAP`` with the
        same error, at the same first use, as when the sum ran word by word.
        """
        simplex, objects, btuple = key
        q = len(btuple)
        _check_cap(j)  # the same refusal as listing the paths on R
        shape = (q, j - 1)
        if shape not in self._shapes:
            enumerate_shuffles(shape)
            self._shapes.add(shape)
        return self._higher[(simplex.arrows[simplex.p - j:], objects, btuple)]

    def _higher_sum(self, memo_key):
        """The terms of d_j, for the right part R (j arrows), objects and basis
        tuple ``memo_key``, as (input objects, input btuple, coefficient): the
        path-shuffle sum times (-1)^q, its objects and basis tuples interned."""
        F, canon = self.field, self._canon
        neg = len(memo_key[2]) % 2
        return tuple((canon.setdefault(objs, objs), canon.setdefault(nb, nb), F.neg(v) if neg else v)
                     for (objs, nb), v in path_shuffle_sum(self.P, *memo_key).items())

    # -- normalized / reduced -------------------------------------------------

    def reduced_witness(self, phi):
        """The first cell of phi's support over a degenerate simplex, in
        cochain text order, or None."""
        base = self.P.base
        F = self.field
        return min((key for key, vec in phi.data.items()
                    if base.is_degenerate(key[0]) and any(not F.is_zero(v) for v in vec)),
                   key=text_order, default=None)

    def normalized_witness(self, phi):
        """None if phi is normalized: zero whenever some argument is an
        identity morphism.  Else the first cell of phi's support, in cochain
        text order, that enters a nonzero value of phi at an identity."""
        F = self.field
        by_family = {}
        for (simplex, objects, btuple), vec in phi.data.items():
            by_family.setdefault((simplex, objects), {})[btuple] = vec
        bad = []
        for (simplex, objects), entries in by_family.items():
            q = len(objects) - 1
            top = self.P.base.objects_along(simplex)[-1]
            fib = self.P.fiber(top)
            for slot in range(1, q + 1):
                if objects[q - slot] != objects[q - slot + 1]:
                    continue
                ident = fib.identity_coords[objects[q - slot]]
                sums = {}  # the other arguments -> [value with the identity, cells read]
                for btuple, vec in entries.items():
                    c = ident[btuple[slot - 1]]
                    if F.is_zero(c):
                        continue
                    rest = btuple[: slot - 1] + btuple[slot:]
                    acc, cells = sums.setdefault(rest, ([F.zero] * len(vec), []))
                    cells.append((simplex, objects, btuple))
                    for i, v in enumerate(vec):
                        acc[i] = F.add(acc[i], F.mul(c, v))
                bad.extend(cell for acc, cells in sums.values()
                           if any(not F.is_zero(v) for v in acc) for cell in cells)
        return min(bad, key=text_order, default=None)

    def nr_keys(self, n):
        """Cells spanning the normalized reduced subcomplex.

        Requires every fiber identity to be a basis vector of its hom module;
        raises ``NrBasisError`` otherwise.
        """
        P = self.P
        base = P.base
        id_idx = {}
        for u in base.objects:
            fib = P.fiber(u)
            for a in fib.objects:
                idx = fib.identity_basis_index(a)
                if idx is None:
                    raise NrBasisError(
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
