"""Comparison maps between the GS complex and the graded Hochschild complex.

F pushes a GS cochain to the graded side via partitioned path transforms and
evaluation shuffles; G pulls back via conditioned shuffle products carrying
underlying base simplices; T is the explicit homotopy from FG to the
identity, built from formal sums of length-(n+1) strings.  Values of T carry
the canonical twist-correction morphisms that identify the value modules of
the strings with the target component; without them the homotopy identity
only holds for strictly functorial restrictions.

What the maps read is built once per scope (see ``shapes``):

- per ``Comparison``, everything that depends only on shape: partitions,
  paths, shuffle words with signs, Seq skeletons, Seqq elements and their
  levels moved onto each arrow chain that G or Omega reads
  (``Comparison.shapes``);
- per prestack, the value at one object of the paths of twists on a chain
  (``Prestack.path_value``), which F's and Omega's frames read;
- per term stream, what is keyed by cell data, as locals of the stream: the
  frame per (simplex, A_n), F's Seq vectors on each right part of a string
  and T's Omega_{n-1} per argument tuple of the recursion.  They go with the
  stream, so memory stays bounded by one degree.

F and Omega read the Seq elements of a string as one vector over hom bases
(``shapes.seq_vector``), summed block by block by the path-shuffle sum of
the GS higher differentials.  G and Omega build each graded string in one
pass from the Seqq element's levels on the chain (``Shapes.levels``) and the
shuffle word (``shapes.graded_string``); Omega builds it on the basis
morphisms of one term of the Seq vector and carries the term's coefficient.
Each stream walks the frames of its output complex (see ``complexbase``).
F and T sum their terms per input cell: each stream yields one block per
(output cell, input cell), as the differentials do.  F, G and T key those
sums by the input cell's arrows, objects and basis tuple, and yield the
input cell's column in the other complex's frame index, or nothing for a
cell it does not list.
"""

from __future__ import annotations

from itertools import product

from .basecat import Simplex
from .combinatorics import Memo, partition_block_slices
from .complexbase import apply_matrix, pull_matrix
from .graded import GMor, string_objects, string_simp
from .gscomplex import expand_multilinear
from .lincat import Mor, compose_blocks, sum_blocks, unit_block
# seq_elements and seqq_elements, the element-by-element forms of Seq and
# Seqq, stay part of this module's interface
from .shapes import (  # noqa: F401
    Shapes,
    block_tail,
    graded_string,
    seq_elements,
    seq_vector,
    seqq_elements,
    zeta_levels,
)


# -- the maps ------------------------------------------------------------------------


class Comparison:
    """F, G and T relative to a fixed GS complex and graded complex pair.

    ``shapes`` lives as long as the comparison, and so does ``_args``, the
    fiber morphism of each argument datum (grading, source, target, basis
    index).  These are its only memos: what a term stream keys by cell data
    is a local of the stream.
    """

    def __init__(self, gs, graded):
        if gs.P is not graded.P:
            raise ValueError("the two complexes must share one prestack")
        self.CG = gs
        self.CU = graded
        self.P = gs.P
        self.field = gs.field
        self.shapes = Shapes(self.P)
        self._args = Memo(lambda key: graded.G.as_fiber_mor(graded.G.basis_gmor(*key)))

    def _entries(self, simplex, objects, btuple):
        """The fiber morphisms of a graded cell's arguments, slot 1 first."""
        return [self._args[self.CU.arg_key(simplex, objects, btuple, i)]
                for i in range(1, simplex.p + 1)]

    def _new_frame(self, key):
        """What F and Omega read of a cell besides its arguments, which
        depends on the simplex and the last object A_n only: the frame of
        ``key`` = (simplex, A_n).  Per p: the left part L_p,
        the chains underlining the first p slots (for ``block_tail``), per
        partition of n - p its sign and the morphism pref, and a memo of the
        block of pref on the left of the source fiber at L_p's sigma^star of
        b, per (partition index, Seq source object b).  pref is the path
        value at A_n on the chain of L_p's composite followed by the
        partition's block composites.
        """
        simplex, top = key
        P = self.P
        base = P.base
        fib0 = P.fiber(simplex.source)
        n = simplex.p

        def lefts(upper, parts):
            return Memo(lambda pb: fib0.left_block(upper.on_obj(pb[1]), parts[pb[0]][2]))

        frame = []
        for p in range(0, n + 1):
            Lsimp = base.left_part(simplex, p)
            upper, left = P.sigma_upper(Lsimp), (base.composite(Lsimp),)
            r_arrows = simplex.arrows[p:]
            parts = []
            for part in self.shapes.partitions[n - p]:
                chain = left + tuple(
                    base.composite(Simplex(base.src(r_arrows[lo]), r_arrows[lo:hi]))
                    for lo, hi in partition_block_slices(part))
                parts.append((part, part.sign, P.path_value(chain, top)))
            under = tuple(simplex.arrows[: n - i] for i in range(n, n - p, -1))
            frame.append((Lsimp, under, parts, lefts(upper, parts)))
        return frame

    # F: GS -> graded ------------------------------------------------------------

    def f_contributions(self, n):
        """Pull-style terms (row, column, block) of F over the degree-n graded
        frames, one per (output cell, input cell)."""
        P = self.P
        F = self.field
        below = self.CG.frames(n)
        frames = Memo(self._new_frame)
        seqs = {}  # the Seq vectors on each right part of a string, shared by its cells
        for simplex, objects, rank, slots, row in self.CU.frames(n).frames:
            fib0 = P.fiber(simplex.source)
            frame = frames[(simplex, objects[-1])]
            for btuple in product(*slots):
                entries = self._entries(simplex, objects, btuple)
                caches = [{}] + [seqs.setdefault(
                    (simplex.arrows[p:], objects[p:], btuple[: n - p]), {})
                    for p in range(1, n + 1)]
                for p, (Lsimp, under, parts, lefts) in enumerate(frame):
                    r_arrows = simplex.arrows[p:]
                    acc = {}  # (objects, btuple) of an input cell over Lsimp -> [(part, coeff)]
                    for pi, (part, sign, _) in enumerate(parts):
                        shape = self.shapes.seq[(r_arrows, part)]
                        neg = sign < 0
                        for cell, c in seq_vector(P, shape, entries[: n - p], objects[p:],
                                                  caches, p).items():
                            acc.setdefault(cell, []).append((pi, F.neg(c) if neg else c))
                    if not acc:
                        continue
                    # the block of a term: m -> pref o m, then o tail for p >= 1
                    tail = (fib0.right_block(parts[0][2].tgt, block_tail(
                        P, under, simplex.source, entries, caches[0])) if p else None)
                    blocks = lefts if tail is None else Memo(
                        lambda key: compose_blocks(F, tail, lefts[key]))
                    for (objs, nb), by_part in acc.items():
                        col = below.column(Lsimp.source, Lsimp.arrows, objs, nb)
                        if col is None:
                            continue
                        block = sum_blocks(F, [(c, blocks[(pi, objs[0])]) for pi, c in by_part])
                        if block:
                            yield row, col, block
                row += rank

    def apply_F(self, phi):
        n = phi.degree
        return apply_matrix(self.matrix_F(n), phi, self.CG, self.CU, n)

    def matrix_F(self, n):
        return pull_matrix(self.f_contributions(n), self.CU.dim(n), self.CG.dim(n), self.field)

    # G: graded -> GS -----------------------------------------------------------

    def g_contributions(self, n):
        """Pull-style terms (row, column, block) of G over the degree-n GS
        frames, one per (output cell, input cell)."""
        P = self.P
        F = self.field
        base = P.base
        shapes = self.shapes
        below = self.CU.frames(n)
        for simplex, objects, rank, slots, row in self.CG.frames(n).frames:
            p = simplex.p
            q = n - p
            top = base.target(simplex)
            for btuple in product(*slots):
                args = [self.CG.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
                words = shapes.shuffles[(q, p)]
                acc = {}
                for zsign, levels in shapes.levels[simplex.arrows]:
                    for word, wsign in words:
                        string = graded_string(P, levels, word, args, objects, top)
                        # the input cell's simplex: its arrows, the gradings in chain order
                        gradings = tuple(e.grading for e in reversed(string))
                        objsx = tuple(string_objects(list(string))) if string else (objects[0],)
                        neg = zsign * wsign < 0
                        for coeff, nb in expand_multilinear(F, string):
                            cell = (gradings, objsx, nb)
                            c = acc.get(cell)
                            if neg:
                                coeff = F.neg(coeff)
                            acc[cell] = coeff if c is None else F.add(c, coeff)
                for (gradings, objsx, nb), c in acc.items():
                    if F.is_zero(c):
                        continue
                    col = below.column(base.src(gradings[0]) if gradings else top, gradings,
                                       objsx, nb)
                    if col is not None:
                        yield row, col, unit_block(F, rank, c)
                row += rank

    def apply_G(self, psi):
        n = psi.degree
        return apply_matrix(self.matrix_G(n), psi, self.CU, self.CG, n)

    def matrix_G(self, n):
        return pull_matrix(self.g_contributions(n), self.CG.dim(n), self.CU.dim(n), self.field)

    # omega / Omega / T ------------------------------------------------------------

    def omega_terms(self, simplex, entries, objects, p, caches=None, frames=None):
        """Corrected strings of omega_{n,p} for one graded component, with
        their coefficients.

        Yields (coefficient, string, correction) with the correction morphism
        mapping the string's value module into A(U_0)(A_0, sigma^* A_n).  The
        Seq part of a string is one basis term of ``seq_vector``, whose
        coefficient the string carries.  ``caches`` may carry what
        ``seq_vector`` already evaluated on this string, and ``frames`` a
        ``Memo`` of ``_new_frame`` that a T stream shares.
        """
        P = self.P
        F = self.field
        base = P.base
        shapes = self.shapes
        n = simplex.p
        u0 = simplex.source
        arrows = simplex.arrows
        caches = [{} for _ in range(n + 1)] if caches is None else caches
        key = (simplex, objects[-1])
        _, under, parts, _ = (self._new_frame(key) if frames is None else frames[key])[p]
        tail = block_tail(P, under, u0, entries, caches[0])
        tail_entry = GMor(base.identities[u0], tail.src, tail.tgt, tail.coords)
        top = base.objects_along(simplex)[p]
        fib = P.fiber(top)
        for part, psign, pref in parts:
            shape = shapes.seq[(arrows[p:], part)]
            # listed after the first Seq shape: the cap refuses in that order
            words, chain_levels = shapes.shuffles[(n - p, p)], shapes.levels[arrows[:p]]
            vec = seq_vector(P, shape, entries[: n - p], objects[p:], caches, p)
            for (objs, nb), c in vec.items():
                last = len(nb)
                ents = tuple(fib.basis_mor(objs[last - 1 - i], objs[last - i], b)
                             for i, b in enumerate(nb))
                for zsign, levels in chain_levels:
                    for word, wsign in words:
                        body = graded_string(P, levels, word, ents, objs, top)
                        yield (F.neg(c) if psign * zsign * wsign < 0 else c,
                               body + (tail_entry,), pref)

    def big_omega_terms(self, simplex, entries, objects, frames=None, omega=None):
        """Corrected strings of Omega_n with their coefficients, including the
        recursion tail.

        The tail reads Omega_{n-1} on (face_0 sigma, entries[:n-1],
        objects[1:]).  A T stream passes its own ``frames``, a ``Memo`` of
        ``_new_frame``, and ``omega``, a dict that keeps Omega_{n-1} per
        argument tuple; by default each call builds its own.
        """
        P = self.P
        base = P.base
        n = simplex.p
        u0 = simplex.source
        fib0 = P.fiber(u0)
        if n == 1:
            u1 = simplex.arrows[0]
            a1 = entries[0]
            top = P.restriction(u1).on_obj(objects[1])
            fib = P.fiber(u0)
            id_entry = GMor(u1, top, objects[1], fib.identity(top).coords)
            a_entry = GMor(base.identities[u0], a1.src, a1.tgt, a1.coords)
            corr = fib.identity(top)
            return [(self.field.one, (id_entry, a_entry), corr)]
        frames = Memo(self._new_frame) if frames is None else frames
        omega = {} if omega is None else omega
        out = []
        neg = (n + 1) % 2
        caches = [{} for _ in range(n + 1)]
        for p in range(1, n + 1):
            for c, string, pref in self.omega_terms(simplex, entries, objects, p, caches, frames):
                out.append((self.field.neg(c) if neg else c, string, pref))
        u1 = simplex.arrows[0]
        sub_simplex = base.face(simplex, 0)
        comp_sub = base.composite(sub_simplex)
        a_n = entries[n - 1]
        a_entry = GMor(u1, a_n.src, objects[1], a_n.coords)
        fu1 = P.restriction(u1)
        fwd = P.twist(u1, comp_sub).at(objects[-1])
        key = (sub_simplex, tuple(entries[: n - 1]), tuple(objects[1:]))
        sub = omega.get(key)
        if sub is None:
            sub = omega[key] = self.big_omega_terms(*key, frames, omega)
        for c, y, corr_y in sub:
            x = y + (a_entry,)
            comp_y = base.composite(string_simp(base, list(y)))
            back = P.twist_inverse(u1, comp_y).at(y[0].tgt_obj)
            corr_x = fib0.compose(fwd, fib0.compose(fu1.apply(corr_y), back))
            out.append((c, x, corr_x))
        return out

    def t_contributions(self, n):
        """Pull-style terms (row, column, block) of T_n over the degree-(n-1)
        graded frames, one per (output cell, input cell): the corrections of
        the strings landing on one input cell are summed before their block
        is read."""
        if n < 2:  # a degree-0 cell has no arguments: T_1 is zero
            return
        P = self.P
        F = self.field
        base = P.base
        below = self.CU.frames(n)
        frames, omega = Memo(self._new_frame), {}
        for simplex, objects, rank, slots, row in self.CU.frames(n - 1).frames:
            fib0 = P.fiber(simplex.source)
            for btuple in product(*slots):
                entries = self._entries(simplex, objects, btuple)
                acc = {}  # (gradings, objects, basis tuple) -> [correction, coordinates]
                for c, string, corr in self.big_omega_terms(simplex, entries, list(objects),
                                                            frames, omega):
                    gradings = tuple(e.grading for e in reversed(string))
                    objsx = tuple(e.src_obj for e in reversed(string)) + (string[0].tgt_obj,)
                    for coeff, nb in expand_multilinear(F, string):
                        coeff = F.mul(c, coeff)
                        hit = acc.get((gradings, objsx, nb))
                        if hit is None:
                            acc[(gradings, objsx, nb)] = [corr, [F.mul(coeff, v)
                                                                 for v in corr.coords]]
                        else:
                            vec = hit[1]
                            for i, v in enumerate(corr.coords):
                                if not F.is_zero(v):
                                    vec[i] = F.add(vec[i], F.mul(coeff, v))
                for (gradings, objsx, nb), (corr, vec) in acc.items():
                    if all(F.is_zero(v) for v in vec):
                        continue
                    col = below.column(base.src(gradings[0]), gradings, objsx, nb)
                    if col is not None:
                        total = Mor(fib0, corr.src, corr.tgt, tuple(vec))
                        yield row, col, fib0.left_block(objects[0], total)
                row += rank

    def matrix_T(self, n):
        """T_n as a matrix from graded degree n to degree n-1."""
        return pull_matrix(self.t_contributions(n), self.CU.dim(n - 1), self.CU.dim(n),
                           self.field)
