"""The Grothendieck construction and its map-graded Hochschild complex.

Morphisms of the graded category carry a base arrow as grading: a morphism
A -> B over u: V -> U is an element of the fiber hom A(V)(A, u*B).
Composition inserts the twist of the pair of gradings.  A tensor string is a
tuple of graded morphisms, target-first; the homotopy T is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .basecat import Simplex
from .combinatorics import Memo
from .complexbase import ComplexBase
from .lincat import Mor, compose_blocks, scale_block


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
    argument datum and is shared by every degree.  The differential is the
    bar kernel of ``complexbase`` over each frame, which finds its head, tail
    and merge faces once per frame and yields input columns.
    """

    def __init__(self, prestack):
        super().__init__(prestack.field)
        self.P = prestack
        self.G = GradedCategory(prestack)
        self.GM = GradedBimodule(self.G)
        self._blocks = Memo(self._new_block)

    # cells: (simplex, objects, btuple) with objects (A_0..A_n), A_i over U_i;
    # entry slot i (1-based) is graded by arrow u_{n+1-i}.

    def _rank(self, simplex, objects):
        return self.G.hom_rank(self.P.base.composite(simplex), objects[0], objects[-1])

    def entry_rank(self, simplex, objects, i):
        n = simplex.p
        u = simplex.arrows[n - i]
        return self.G.hom_rank(u, objects[n - i], objects[n - i + 1])

    def object_bases(self, simplex, count):
        """The base object of each of a cell's objects: A_i lies over U_i."""
        return self.P.base.objects_along(simplex)

    def arg_key(self, simplex, objects, btuple, i):
        """What argument slot i of a cell is: (grading, source, target, basis index)."""
        n = simplex.p
        return (simplex.arrows[n - i], objects[n - i], objects[n - i + 1], btuple[i - 1])

    cells = ComplexBase.cells

    def _candidate_frames(self, n):
        """(simplex, objects, slot bases) of every degree-n frame, in cell
        order: the n-simplices, then every object tuple along the simplex.
        Slot i bases the morphisms graded by u_{n+1-i}."""
        P = self.P
        for simplex in P.base.nerve(n) if n >= 0 else ():
            obj_lists = [self.G.objects(u) for u in P.base.objects_along(simplex)]
            for objects in product(*obj_lists):
                yield simplex, objects, tuple(range(self.entry_rank(simplex, objects, i))
                                              for i in range(1, n + 1))

    def _new_frame(self, frame, n):
        """The bar frame of the listed ``frame``: the head and tail
        sub-simplices and the merge faces, found one degree down, with the
        blocks of ``_blocks`` under their keys."""
        base, blocks = self.P.base, self._blocks
        simplex, objects = frame[0], frame[1]
        arrows = simplex.arrows
        head = Simplex(simplex.source, arrows[:-1])
        tail = Simplex(base.tgt(arrows[0]), arrows[1:])
        v_head, v_tail = base.composite(head), base.composite(tail)

        def arg(i, b):  # argument slot i with basis index b, as ``arg_key`` gives it
            return (arrows[n - i], objects[n - i], objects[n - i + 1], b)

        return self._bar_frame(
            frame, self._index[n - 1], (head, objects[:-1]), (tail, objects[1:]),
            [(base.face(simplex, n - i), objects[: n - i] + objects[n - i + 1 :])
             for i in range(1, n)],
            lambda b: blocks[("left", arg(1, b), v_head, objects[0])],
            lambda b: blocks[("right", v_tail, objects[1], objects[-1], arg(n, b), n % 2)],
            lambda k: blocks[("merge", arg(k[0], k[1]), arg(k[0] + 1, k[2]))])

    def _new_block(self, key):
        """The ``_blocks`` entry at ``key``.  i = 0: mu(a_1, -) on the head's
        composite; a middle term: the nonzero coordinates of mu(a_i, a_{i+1});
        i = n: mu(-, a_n) on the tail's composite, whose sign is that of n's
        parity."""
        G, F = self.G, self.field
        if key[0] == "left":
            _, arg, v, a_obj = key
            return self.GM.left_mu(G.basis_gmor(*arg), v, a_obj)
        if key[0] == "merge":
            mu = G.mu(G.basis_gmor(*key[1]), G.basis_gmor(*key[2]))
            return tuple((b, c) for b, c in enumerate(mu.coords) if not F.is_zero(c))
        _, v, b_obj, c_obj, arg, odd = key
        return scale_block(F, F.one, self.GM.right_mu(v, b_obj, c_obj, G.basis_gmor(*arg)),
                           -1 if odd else 1)

    def diff_contributions(self, n):
        """The terms (row, column, block) of the differential over the
        degree-n frames.

        Blocks come from ``_blocks`` and the frame's unit blocks, and are
        shared between terms and cells; no consumer may mutate one.
        """
        if n < 1:  # a degree-0 cell has no arguments: nothing maps into it
            return
        for frame in self._index[n].frames:
            rank, slots, row = frame[2:]
            fr = self._new_frame(frame, n)
            for k, btuple in enumerate(product(*slots)):
                yield from self._bar_terms(fr, btuple, k, row + rank * k)


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
