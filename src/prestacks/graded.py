"""The Grothendieck construction and its map-graded Hochschild complex.

Morphisms of the graded category carry a base arrow as grading: a morphism
A -> B over u: V -> U is an element of the fiber hom A(V)(A, u*B).
Composition inserts the twist of the pair of gradings.  A tensor string is a
tuple of graded morphisms, target-first; the homotopy T is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

from .basecat import Simplex
from .complexbase import ComplexBase
from .lincat import compose_blocks, scale_block, unit_block


@dataclass(frozen=True)
class GMor:
    """A graded morphism: base arrow grading, endpoints, fiber coordinates.
    It is also one slot of a tensor string.

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


class GradedBimodule:
    """The actions of the graded category on its own morphisms by mu, as
    blocks read off the fiber categories and restriction functors."""

    def __init__(self, graded):
        self.G = graded
        self.P = graded.P
        self.field = graded.field

    def left_mu(self, b, v, a_obj):
        """The block of x -> mu(b, x) for b graded u from C to D, x in A~_v(A, C)."""
        P = self.P
        base = P.base
        u = b.grading
        if base.src(u) != base.tgt(v):
            raise ValueError("gradings not composable in left action")
        fib = P.fiber(base.src(v))
        vb = P.restriction(v).apply(self.G.as_fiber_mor(b))
        tw = P.twist(v, u).at(b.tgt_obj)
        return compose_blocks(self.field, fib.left_block(a_obj, tw),
                              fib.left_block(a_obj, vb))

    def right_mu(self, v, b_obj, c_obj, a):
        """The block of x -> mu(x, a) for x in A~_v(B, C), a graded w from A to B."""
        P, F = self.P, self.field
        base = P.base
        w = a.grading
        if base.src(v) != base.tgt(w):
            raise ValueError("gradings not composable in right action")
        fib = P.fiber(base.src(w))
        fw = P.restriction(w)
        y = fw.block(b_obj, P.restriction(v).on_obj(c_obj))
        z = fib.left_block(fw.on_obj(b_obj), P.twist(w, v).at(c_obj))
        r = fib.right_block(P.restriction(base.then(w, v)).on_obj(c_obj),
                            self.G.as_fiber_mor(a))
        return compose_blocks(F, r, compose_blocks(F, z, y))


class GradedComplex(ComplexBase):
    """The Hochschild complex of the graded category with coefficients in itself.

    Each term of the differential at a cell reads at most two of its
    arguments: the i = 0 term is mu(a_1, -), a middle term mu(a_i, a_{i+1})
    and the i = n term mu(-, a_n).  ``_blocks`` memoizes what a term computes
    on exactly the data it reads (an argument is its grading, endpoints and
    basis index), never on the cell, so it holds one entry per distinct
    argument datum and is shared by every degree.  The frame of a cell (see
    ``complexbase``) holds the two sub-simplices with their composites and
    the merge faces, the blocks by b_1, b_n and (i, b_i, b_{i+1}), and the
    unit blocks by (coefficient, parity).
    """

    def __init__(self, prestack):
        super().__init__(prestack.field)
        self.P = prestack
        self.G = GradedCategory(prestack)
        self.GM = GradedBimodule(self.G)
        self._blocks = {}

    # cells: (simplex, objects, btuple) with objects (A_0..A_n), A_i over U_i;
    # entry slot i (1-based) is graded by arrow u_{n+1-i}.

    def _rank(self, simplex, objects):
        return self.G.hom_rank(self.P.base.composite(simplex), objects[0], objects[-1])

    def entry_rank(self, simplex, objects, i):
        n = simplex.p
        u = simplex.arrows[n - i]
        return self.G.hom_rank(u, objects[n - i], objects[n - i + 1])

    def arg_key(self, simplex, objects, btuple, i):
        """What argument slot i of a cell is: (grading, source, target, basis index)."""
        n = simplex.p
        return (simplex.arrows[n - i], objects[n - i], objects[n - i + 1], btuple[i - 1])

    def arg_gmor(self, simplex, objects, btuple, i):
        return self.G.basis_gmor(*self.arg_key(simplex, objects, btuple, i))

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

    def _new_frame(self, simplex, objects, n):
        """What every cell of the frame reads: the two sub-simplices with their
        composites, the merge faces, and empty memos for the blocks by basis index."""
        base = self.P.base
        arrows = simplex.arrows
        head = Simplex(simplex.source, arrows[:-1])
        tail = Simplex(base.tgt(arrows[0]), arrows[1:])
        return SimpleNamespace(
            rank=self.value_rank((simplex, objects, None)),
            head=head, head_objects=objects[:-1], v_head=base.composite(head),
            tail=tail, tail_objects=objects[1:], v_tail=base.composite(tail),
            faces=[(base.face(simplex, n - i), objects[: n - i] + objects[n - i + 1 :])
                   for i in range(1, n)],
            lefts={}, rights={}, merges={}, units={})

    def diff_contributions(self, key, n):
        """The terms (in_key, block) of the differential at the degree-n cell.

        Blocks come from ``_blocks`` and the frame's unit blocks, and are
        shared between terms and cells; no consumer may mutate one.
        """
        F = self.field
        blocks = self._blocks
        simplex, objects, btuple = key
        fr = self._frame(simplex, objects, n)

        # i = 0: mu(a_1, psi(a_2..a_n))
        b = btuple[0]
        block = fr.lefts.get(b)
        if block is None:
            arg = self.arg_key(simplex, objects, btuple, 1)
            memo_key = ("left", arg, fr.v_head, objects[0])
            block = blocks.get(memo_key)
            if block is None:
                block = blocks[memo_key] = self.GM.left_mu(
                    self.G.basis_gmor(*arg), fr.v_head, objects[0])
            fr.lefts[b] = block
        yield (fr.head, fr.head_objects, btuple[1:]), block

        # middle merges: the nonzero coordinates of mu(a_i, a_{i+1})
        for i in range(1, n):
            mkey = (i, btuple[i - 1], btuple[i])
            terms = fr.merges.get(mkey)
            if terms is None:
                a, c = (self.arg_key(simplex, objects, btuple, k) for k in (i, i + 1))
                memo_key = ("merge", a, c)
                merged = blocks.get(memo_key)
                if merged is None:
                    mu = self.G.mu(self.G.basis_gmor(*a), self.G.basis_gmor(*c))
                    merged = blocks[memo_key] = tuple(
                        (bm, v) for bm, v in enumerate(mu.coords) if not F.is_zero(v))
                terms = fr.merges[mkey] = [(bm, self._unit(fr, v, i % 2)) for bm, v in merged]
            face, face_objects = fr.faces[i - 1]
            for bm, block in terms:
                yield (face, face_objects, btuple[: i - 1] + (bm,) + btuple[i + 1 :]), block

        # i = n: mu(psi(a_1..a_{n-1}), a_n), whose sign is that of n's parity
        b = btuple[-1]
        block = fr.rights.get(b)
        if block is None:
            arg = self.arg_key(simplex, objects, btuple, n)
            memo_key = ("right", fr.v_tail, objects[1], objects[-1], arg, n % 2)
            block = blocks.get(memo_key)
            if block is None:
                block = self.GM.right_mu(fr.v_tail, objects[1], objects[-1],
                                         self.G.basis_gmor(*arg))
                block = blocks[memo_key] = scale_block(F, F.one, block, -1 if n % 2 else 1)
            fr.rights[b] = block
        yield (fr.tail, fr.tail_objects, btuple[:-1]), block

    def _unit(self, fr, c, odd):
        """The frame's unit block of (-1)^odd c, one per (coefficient, parity)."""
        block = fr.units.get((c, odd))
        if block is None:
            block = fr.units[(c, odd)] = unit_block(self.field, fr.rank, c, -1 if odd else 1)
        return block


# -- strings ------------------------------------------------------------------


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
