"""The twisted Gerstenhaber-Schack complex.

Cochains are keyed by (base simplex, fiber object tuple, hom basis tuple);
the value at a key is a coordinate vector in the hom module
A(U_0)(sigma^star A_0, sigma^* A_q) of the fiber over the simplex's source:
the coefficients are the prestack itself.  The total differential is
d = d_Hoch + (-1)^n d_simp plus the higher components d_j, 2 <= j <= p.
``NrComplex`` is its normalized reduced subcomplex, a complex of its own
that lists only its cells (no degenerate simplex, no identity argument)
and keeps the GS differential.

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
paths and words is dynamic programming over the 2^(j-1) (q+1) such states,
from (no cuts, 0) to (all cuts, q), with the overall sign (-1)^q.
That sum is ``path_shuffle_sum``; the Seq construction of the comparison
maps is the same sum on each block of a partition (``shapes.seq_vector``).
It runs bottom up, with no recursion: f from q down to 0 and cuts from all
cuts down to none, which is a topological order since an un-merge only adds
a cut.  The moves depend on j alone: ``MOVES[j]`` lists per coarsening the
slices it composes and its un-merges, and lives for the life of the process.
A state's zeros are dropped once its sum is complete, and an empty state
starts no move.  The paths of a word often cancel in pairs (with identity
restrictions, coherence makes them all equal and their signs sum to zero
for j >= 3), so many states are empty, and one call composes a coarsening,
reads its star functor and an un-merge's twist components only when a
nonempty state needs them; it keeps only two layers of f, and nothing of it
outlives the call.  The sum reads only R, the objects and the basis tuple,
so d_j memoizes it on them for the life of the complex.  The terms are
summed per input cell and d_j yields one term per input cell.

The differential is assembled frame by frame (see ``complexbase``).  What
reads only the simplex (its fibers, sigma_* and sigma^*, the faces with
their restrictions and twists, the left parts of d_j) is built once per run
of consecutive frames over that simplex, a local of the walk rebuilt when
the simplex changes.  A frame (simplex, objects) fixes the star functors,
the input frames of every term, the d_simp blocks of face 0 and of the
middle faces, d_p's block and sign, and the twist c_pref of each d_j.  It
resolves once where each input frame lies one degree down: the bar kernel's,
the d_simp faces, d_p's frame, and d_j's left part by input objects.  d_Hoch
is the bar kernel ``_bar_terms`` over the frame, with sigma_* a_1 acting on
the left of the source fiber, the composites in the top fiber and sigma^*
a_q acting on the right with (-1)^q.  Every face but the last keeps the
cell's target and objects, so its input cell sits at the cell's own position
in the face's frame.  Only the argument blocks read the basis tuple: besides
the bar kernel's, d_p's restricted supports by (i, b_i) and d_j's left
blocks by input object, each memoized for the frame; an argument's image
under a functor is a column of its matrix.  A d_p or d_j term reads its
column off its input frame's slot bases (``frame_column``), so a term at a
cell the complex does not list (an identity argument of ``NrComplex``) is
dropped.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

from .combinatorics import Memo, _check_cap, enumerate_shuffles
from .complexbase import ComplexBase, frame_column, text_order
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


def _new_moves(j):
    """The move table of a chain of j arrows, a tuple over the coarsenings
    ``cuts``: (segments, un-merges).  Bit c - 1 of ``cuts`` cuts the chain
    after its c-th arrow.  ``segments`` lists the (start, stop) slices that
    the coarsening composes; ``un-merges`` lists (pred, i, sign): adding one
    cut gives the coarsening ``pred``, which merges back at index i
    (1-based) with the step sign (-1)^[i odd]."""
    table = []
    for cuts in range(1 << (j - 1)):
        stops = [c for c in range(1, j) if cuts >> (c - 1) & 1] + [j]
        moves = []
        for c in range(1, j):
            bit = 1 << (c - 1)
            if not cuts & bit:
                i = 1 + bin(cuts & (bit - 1)).count("1")  # merge index in pred
                moves.append((cuts | bit, i, -1 if i % 2 else 1))
        table.append((tuple(zip([0] + stops[:-1], stops)), tuple(moves)))
    return tuple(table)


# It depends on j alone and reads no cap: every caller of path_shuffle_sum
# has checked j against PRESTACKS_ENUM_CAP first.
MOVES = Memo(_new_moves)


def path_shuffle_sum(P, R, objects, btuple):
    """The sum over every path of whiskered twists on the arrow chain R and
    every (q, j-1)-shuffle of its tokens with the q basis arguments
    ``btuple`` between ``objects``, as {(objects, btuple): coeff} without
    zeros, in the cell conventions (objects source-first, arguments
    target-first).  A word carries its path sign times its shuffle sign; d_j
    multiplies the sum by (-1)^q.

    A loop over the states (cuts, f), a coarsening of R and the number of
    fiber tokens read, bottom up: f from q down to 0 and, for each f, cuts
    from all cuts down to none (see the module docstring).  A state's sum
    over the rest of every word is {(tgt_1, b_1, ..., tgt_m, b_m): coeff},
    the target object and basis index of each token read; its zeros are
    dropped once it is complete, and only the layers f and f + 1 are held.
    An empty state starts no move, so a coarsening's chain and star functor
    and an un-merge's twist are read only when a nonempty state needs them.
    ``MOVES[j]`` is shared by every chain of j arrows; the chains and star
    functors read are kept for the call and dropped with it.
    """
    F = P.field
    is_zero = F.is_zero
    j, q = len(R), len(btuple)
    table = MOVES[j]
    full = len(table) - 1
    comp = P.base.chain_composite
    chains = [None] * (full + 1)  # each coarsening's chain of composites, on first use
    stars = [None] * (full + 1)  # its star functor, on first use

    def new_chain(cuts):  # fills chains[cuts], read as ``chains[cuts] or new_chain(cuts)``
        chain = chains[cuts] = tuple(comp(R[a:b]) for a, b in table[cuts][0])
        return chain

    after = None  # the sums of layer f + 1, by cuts
    for f in range(q, -1, -1):
        here = [None] * (full + 1)
        obj = objects[-1 - f]  # the object a path token read after f fiber tokens sees
        sgn_f = -1 if (q - f) % 2 else 1  # fiber tokens after that path token
        if f < q:
            lo, hi, b = objects[q - f - 1], objects[q - f], btuple[f]
        for cuts in range(full, -1, -1):
            acc = {(): F.one} if f == q and cuts == full else {}
            if f < q and after[cuts]:
                fun = stars[cuts]
                if fun is None:
                    fun = stars[cuts] = P.stars(chains[cuts] or new_chain(cuts))
                _prepend(F, fun.mats[(lo, hi)][b], fun.obj_map[hi], 1, after[cuts], acc)
            for pred, i, sgn in table[cuts][1]:
                if here[pred]:
                    mor = P.epsilon_for(chains[pred] or new_chain(pred), i).components[obj]
                    _prepend(F, mor.coords, mor.tgt, sgn_f * sgn, here[pred], acc)
            if acc:
                for k in [k for k, v in acc.items() if is_zero(v)]:
                    del acc[k]
            here[cuts] = acc
        after = here
    if not after[0]:
        return {}
    # every word's last token starts at sigma^* of R at objects[0]
    x0 = P.stars(R).obj_map[objects[0]]
    return {((x0,) + k[-2::-2], k[1::2]): v for k, v in after[0].items()}


def _prepend(F, coords, tgt, sgn, tail, acc):
    """acc += sgn * (the token with target ``tgt`` and coordinates ``coords``)
    read before each word of ``tail``."""
    mul, add = F.mul, F.add
    for b, c in enumerate(coords):
        if F.is_zero(c):
            continue
        if sgn < 0:
            c = F.neg(c)
        head = (tgt, b)
        for k, v in tail.items():
            k = head + k
            v = mul(c, v)
            prev = acc.get(k)
            acc[k] = v if prev is None else add(prev, v)


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

    def object_bases(self, simplex, count):
        """The base object of each of a cell's ``count`` objects: the target."""
        return [self.P.base.target(simplex)] * count

    def arg_mor(self, simplex, objects, btuple, i):
        """The i-th argument (1-based): basis b_i of hom(A_{q-i}, A_{q-i+1})."""
        q = len(btuple)
        fib = self.P.fiber(self.P.base.target(simplex))
        return fib.basis_mor(objects[q - i], objects[q - i + 1], btuple[i - 1])

    cells = ComplexBase.cells

    def _candidate_frames(self, n):
        """(simplex, objects, slot bases) of every degree-n frame, in cell
        order: p from 0 to n, the simplices of ``_simplices(p)``, then every
        object tuple of the fiber over the simplex's target.  Slot i bases
        hom(A_{q-i}, A_{q-i+1}); the slot bases are shared per (target, objects)."""
        P = self.P
        shared = {}
        for p in range(0, n + 1):
            q = n - p
            for simplex in self._simplices(p):
                top = P.base.target(simplex)
                fib = P.fiber(top)
                for objects in product(fib.objects, repeat=q + 1):
                    slots = shared.get((top, objects))
                    if slots is None:
                        slots = shared[(top, objects)] = tuple(
                            self._slot_basis(top, fib, objects[q - i], objects[q - i + 1])
                            for i in range(1, q + 1))
                    yield simplex, objects, slots

    def _simplices(self, p):
        """The p-simplices that carry cells: the whole nerve."""
        return self.P.base.nerve(p)

    def _slot_basis(self, top, fib, a, b):
        """The basis indices of an argument in hom(a, b) of ``fib``, the fiber over ``top``."""
        return range(fib.rank(a, b))

    # -- the differential --------------------------------------------------------

    def _simplex_data(self, simplex):
        """What every frame over ``simplex`` reads, whatever its objects and
        degree: fibers, sigma_* and sigma^*, the faces with their functors and
        twists, the left parts of d_j.  A degree lists a simplex's frames one
        after another, so ``diff_contributions`` builds it once per run."""
        P = self.P
        base = P.base
        p = simplex.p
        sd = SimpleNamespace(fib0=P.fiber(simplex.source), fib=P.fiber(base.target(simplex)),
                             lower=P.sigma_lower(simplex), upper=P.sigma_upper(simplex),
                             face0=None, middle=[], last=None, higher=[])
        if p >= 1:
            d0 = base.face(simplex, 0)
            sd.face0 = (d0, P.c_sigma_k(simplex, 1), P.restriction(simplex.arrows[0]),
                        P.sigma_upper(d0), P.sigma_lower(d0))
            for i in range(1, p):
                di = base.face(simplex, i)
                sd.middle.append((di, P.epsilon_sigma_i(simplex, i), P.sigma_lower(di),
                                  -1 if i % 2 else 1))
            dp = base.face(simplex, p)
            sd.last = (dp, P.restriction(simplex.arrows[-1]), P.c_sigma_k(simplex, p - 1),
                       P.sigma_upper(dp), -1 if p % 2 else 1)
        for j in range(2, p + 1):
            left = base.left_part(simplex, p - j)
            sd.higher.append((j, left, P.sigma_upper(left), P.c_sigma_k(simplex, p - j)))
        return sd

    def _new_frame(self, frame, sd, below, n):
        """What every cell of the listed degree-n ``frame`` reads, given its
        simplex data ``sd``: the bar frame of d_Hoch, the d_simp blocks that
        do not read the arguments and memos for those that do, each with
        where its input frame lies in ``below``, the ``FrameIndex`` one
        degree down."""
        F = self.field
        simplex, objects = frame[0], frame[1]
        p, q = simplex.p, len(objects) - 1
        fib0, fib, lower, upper = sd.fib0, sd.fib, sd.lower, sd.upper
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
            frame, below, (simplex, objects[:-1]), (simplex, objects[1:]),
            [(simplex, objects[:q - i] + objects[q - i + 1:]) for i in range(1, q)],
            first, last, merged)
        fr.faces, fr.dp, fr.higher = [], None, []
        if p >= 1:
            sgn_simp = -1 if n % 2 else 1  # (-1)^n on d_simp
            d0, c1, fu1, upper0, lower0 = sd.face0
            face = below.at.get((d0.source, d0.arrows, objects))
            if face is not None:
                bsub, asub = upper0.on_obj(objects[0]), lower0.on_obj(objects[-1])
                block = compose_blocks(F, fib0.left_block(fu1.on_obj(bsub), c1.at(objects[-1])),
                                       fu1.block(bsub, asub))
                fr.faces.append((face[4], face[2], scale_block(F, F.one, block, sgn_simp)))
            for di, eps, lower_i, sgn in sd.middle:
                face = below.at.get((di.source, di.arrows, objects))
                if face is not None:
                    fr.faces.append((face[4], face[2], scale_block(
                        F, F.one, fib0.right_block(lower_i.on_obj(objects[-1]), eps.at(objects[0])),
                        sgn_simp * sgn)))
            dp, up, cp, upper_p, sgn = sd.last
            dp_objects = tuple(up.on_obj(o) for o in objects)
            dp_frame = below.at.get((dp.source, dp.arrows, dp_objects))
            if dp_frame is not None:
                dp_block = fib0.left_block(upper_p.on_obj(dp_objects[0]), cp.at(objects[-1]))
                sgn_p = sgn_simp * sgn

                def support(key):  # the nonzero coordinates of up(a_i), a_i = basis b
                    i, b = key
                    col = up.mats[(objects[q - i], objects[q - i + 1])][b]
                    return [(k, c) for k, c in enumerate(col) if not F.is_zero(c)]

                fr.dp = (dp_frame, Memo(support),
                         Memo(lambda coeff: scale_block(F, coeff, dp_block, sgn_p)))

        def left_blocks(functor, c):  # A -> the block of c on the left of fib0 at functor(A)
            return Memo(lambda obj: fib0.left_block(functor.on_obj(obj), c))

        for j, left, upper_l, c in sd.higher:
            fr.higher.append((j, left.source, left.arrows, left_blocks(upper_l, c.at(objects[-1]))))
        return fr

    def diff_contributions(self, n):
        """Yield (row, column, block) over the degree-n frames.

        Everything but the argument blocks comes from the cell's frame; the
        blocks are shared by the cells of the frame, so no consumer may
        mutate one.  Terms at input cells that the complex does not list are
        left out.
        """
        F = self.field
        below = self._index[n - 1]
        sd_simplex = sd = None
        for frame in self._index[n].frames:
            simplex, objects, rank, slots, row = frame
            if simplex != sd_simplex:
                sd_simplex, sd = simplex, self._simplex_data(simplex)
            fr = self._new_frame(frame, sd, below, n)
            for k, btuple in enumerate(product(*slots)):
                # d_Hoch from C^{p, q-1}
                yield from self._bar_terms(fr, btuple, k, row)

                # (-1)^n d_simp from C^{p-1, q}: every face but the last keeps the slots
                for col, in_rank, block in fr.faces:
                    yield row, col + in_rank * k, block
                if fr.dp is not None:
                    dp_frame, supports, dp_blocks = fr.dp
                    for coeff, nb in expand_supports(
                            F, [supports[(i, b)] for i, b in enumerate(btuple, 1)]):
                        col = frame_column(dp_frame, nb)
                        if col is not None:
                            yield row, col, dp_blocks[coeff]

                # higher components d_j from C^{p-j, q+j-1}, 2 <= j <= p: one term
                # per input cell
                for j, source, arrows, lefts in fr.higher:
                    for in_objects, nb, coeff in self._right_terms((simplex, objects, btuple), j):
                        in_frame = below.at.get((source, arrows, in_objects))
                        col = None if in_frame is None else frame_column(in_frame, nb)
                        if col is not None:
                            yield row, col, scale_block(F, coeff, lefts[in_objects[0]])
                row += rank

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
            fib = self.P.fiber(self.P.base.target(simplex))
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


class NrComplex(GSComplex):
    """The normalized reduced subcomplex: the GS cells over non-degenerate
    simplices with no identity argument, listed directly in GS cell order.
    Its differential is the GS one; ``pull_matrix`` drops the terms at other
    input cells.  Raises ``NrBasisError`` unless every fiber identity is a
    basis vector of its hom module.
    """

    def __init__(self, prestack):
        super().__init__(prestack)
        self._identity = {}  # (base object, fiber object) -> basis index of the identity
        for u in prestack.base.objects:
            fib = prestack.fiber(u)
            for a in fib.objects:
                idx = fib.identity_basis_index(a)
                if idx is None:
                    raise NrBasisError(
                        "fiber %s: identity of %s is not a basis vector; "
                        "nr basis enumeration unavailable" % (u, a))
                self._identity[(u, a)] = idx

    def _simplices(self, p):
        base = self.P.base
        return [s for s in base.nerve(p) if not base.is_degenerate(s)]

    def _slot_basis(self, top, fib, a, b):
        basis = range(fib.rank(a, b))
        return basis if a != b else [i for i in basis if i != self._identity[(top, a)]]
