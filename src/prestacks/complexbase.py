"""Shared machinery for sparsely stored cochain complexes.

A cell is a frame, its (simplex, objects) pair, plus a basis tuple.  A
complex lists each degree's frames once, in a ``FrameIndex``: a frame is
(simplex, objects, value rank, slot bases, first offset), and its cells are
the row-major product of its slot bases, each ``rank`` columns wide.  No
frame of value rank 0 or with an empty slot basis is listed.  ``cells(n)``
expands that listing, and ``index(n)`` is (the ``FrameIndex`` as a mapping
from cell to first column, dim); no dict keyed by cell is built.

Every operator between complexes (the differentials d and delta, the
comparison maps F and G, the homotopy T) is given pull-style, as one term
stream per matrix.  The stream walks the output ``FrameIndex``, the cell at
position k of a frame in row (first offset) + k * rank, and yields terms
``(row, column, block)``: the first row of an output cell, the first column
of an input cell and the matrix of a linear map from the value coordinates
there to those at the output cell, a dict ``{(r, b): v}`` with the term's
sign folded in (``lincat`` builds blocks).  What every cell of a frame reads
(faces, composites, functors, where the input frames lie, the blocks that
read no argument, memos of those that read one) is built once per frame as
a local of the walk; no frame state is kept on the complex.  Input frames
are found once per frame (``FrameIndex.at``), so a term costs offset
arithmetic or a lookup on ints, and the terms at input cells that the input
complex does not list, such as the gaps of ``NrComplex``, are dropped.

``pull_matrix`` is the only consumer of a term stream: v lands in row + r,
column + b.  A block holds no zeros: every block builder in ``lincat`` and
the complexes drops them, and ``pull_matrix`` relies on it, checking for
zeros only in the sums where two terms meet.  ``apply_matrix`` applies the
matrix to a cochain as to_vector in the input complex, matvec, from_vector
in the output complex, so a cochain is read in the coordinates of the
complex whose matrix is applied: an ``NrComplex`` cochain passed to the GS
differential is read in GS coordinates.

Both complexes share their Hochschild part: the bar differential of the
fibers (GS) or of the Grothendieck construction (graded).  ``_bar_terms`` is
its one kernel.  It yields a cell's terms from the frame data that
``_bar_frame`` builds: a_1 acting on the left, each adjacent pair a_i
a_{i+1} merged, as unit blocks of (-1)^i times the composite's coordinates,
and a_q acting on the right.  Each input frame keeps the cell's other slot
bases, so its column is arithmetic on the cell's position in its own frame.

A block may be shared between terms and cells: a complex may memoize blocks
for its life or for one frame of its walk.  So no consumer mutates a block;
``pull_matrix`` only reads them, and ``lincat.compose_blocks`` and
``scale_block`` return new dicts.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from itertools import product
from math import prod
from types import SimpleNamespace

from .combinatorics import Memo
from .linalg import SparseMatrix
from .lincat import unit_block


class SparseCochain:
    """A sparse cochain: dict from cell keys to value coordinate lists."""

    def __init__(self, complex_, degree, data=None):
        self.complex = complex_
        self.degree = degree
        self.data = dict(data or {})

    def get(self, key):
        vec = self.data.get(key)
        if vec is None:
            vec = [self.complex.field.zero] * self.complex.value_rank(key)
        return vec

    def add_to(self, key, vec):
        F = self.complex.field
        cur = self.data.get(key)
        if cur is None:
            cur = [F.zero] * len(vec)
        new = [F.add(a, b) for a, b in zip(cur, vec)]
        if all(F.is_zero(v) for v in new):
            self.data.pop(key, None)
        else:
            self.data[key] = new

    def is_zero(self):
        F = self.complex.field
        return all(all(F.is_zero(v) for v in vec) for vec in self.data.values())

    def __eq__(self, other):
        if not isinstance(other, SparseCochain):
            return NotImplemented
        F = self.complex.field
        for k in set(self.data) | set(other.data):
            a, b = self.get(k), other.get(k)
            if len(a) != len(b) or any(not F.eq(x, y) for x, y in zip(a, b)):
                return False
        return True

    def sub(self, other):
        out = SparseCochain(self.complex, self.degree, dict(self.data))
        F = self.complex.field
        for k, vec in other.data.items():
            out.add_to(k, [F.neg(v) for v in vec])
        return out


def text_order(key):
    """The sort key of a cell in cochain text: simplex dimension, arrows,
    source, objects, basis tuple."""
    simplex, objects, btuple = key
    return simplex.p, simplex.arrows, simplex.source, objects, btuple


def frame_column(frame, btuple):
    """The first column of the cell ``btuple`` of ``frame``, or None if some
    index is not in its slot basis."""
    _, _, step, slots, col = frame
    for b, slot in zip(reversed(btuple), reversed(slots)):
        if b not in slot:
            return None
        col += slot.index(b) * step
        step *= len(slot)
    return col


class FrameIndex(Mapping):
    """One degree's frames, in cell order, and as a mapping each cell's first
    column.  ``at`` finds a frame by (its simplex's source, its simplex's
    arrows, its objects)."""

    def __init__(self, frames, dim):
        self.frames = frames
        self.dim = dim
        self.at = {(f[0].source, f[0].arrows, f[1]): f for f in frames}

    def column(self, source, arrows, objects, btuple):
        """The first column of a listed cell, else None."""
        frame = self.at.get((source, arrows, objects))
        if frame is None or len(btuple) != len(frame[3]):
            return None
        return frame_column(frame, btuple)

    def __getitem__(self, key):
        col = None
        if isinstance(key, tuple) and len(key) == 3:
            simplex, objects, btuple = key
            col = self.column(simplex.source, simplex.arrows, objects, btuple)
        if col is None:
            raise KeyError(key)
        return col

    def __iter__(self):
        for simplex, objects, _, slots, _ in self.frames:
            for btuple in product(*slots):
                yield simplex, objects, btuple

    def __len__(self):
        return sum(prod(map(len, f[3])) for f in self.frames)


def pull_matrix(terms, rows, cols, field):
    """The ``rows`` x ``cols`` matrix of the term stream ``terms``.

    Each term (row, column, block) adds v at (row + r, column + b) for each
    entry (r, b): v of its block.  Entries are summed in place with
    ``field.add``.  A block holds no zeros, so only a sum can be zero: each
    row in which a sum was zero when formed is noted, and its zeros are
    dropped once the rows are complete.
    """
    add, is_zero = field.add, field.is_zero
    data = [{} for _ in range(rows)]
    zero_rows = []  # a row is noted again only after another row was
    for row0, col0, block in terms:
        for (r, b), v in block.items():
            row = data[row0 + r]
            col = col0 + b
            prev = row.get(col)
            if prev is None:
                row[col] = v
            else:
                v = row[col] = add(prev, v)
                if is_zero(v) and (not zero_rows or zero_rows[-1] is not row):
                    zero_rows.append(row)
    for row in zero_rows:
        for col in [col for col, v in row.items() if is_zero(v)]:
            del row[col]
    return SparseMatrix(rows, cols, field, data)


def apply_matrix(mat, phi, in_complex, out_complex, n):
    """``mat`` applied to ``phi`` read in the coordinates of ``in_complex``,
    as a degree-n cochain of ``out_complex``."""
    return out_complex.from_vector(n, mat.matvec(in_complex.to_vector(phi)))


class ComplexBase:
    """Cell bookkeeping plus differential application and assembly."""

    def __init__(self, field):
        self.field = field
        self._cells = {}
        self._index = Memo(self._new_index)  # n -> FrameIndex
        self._rank_cache = Memo(lambda frame: self._rank(*frame))

    # subclasses: _candidate_frames(n) -> (simplex, objects, slot bases) in
    # cell order, _rank(simplex, objects) -> int, diff_contributions(n) ->
    # generator of (row, column, block) over the degree-n frames.  Each binds
    # ``cells`` in its own class, where perfbench's tracer wraps it by name.

    def _new_index(self, n):
        frames, dim = [], 0
        for simplex, objects, slots in self._candidate_frames(n):
            if not all(slots):
                continue
            rank = self._rank(simplex, objects)  # each frame is listed in one degree only
            if rank == 0:
                continue
            frames.append((simplex, objects, rank, slots, dim))
            dim += rank * prod(map(len, slots))
        return FrameIndex(frames, dim)

    def frames(self, n):
        """The degree-n ``FrameIndex``."""
        return self._index[n]

    def cells(self, n):
        """The degree-n cells (simplex, objects, btuple), frame by frame."""
        if n not in self._cells:
            self._cells[n] = list(self._index[n])
        return self._cells[n]

    def _bar_frame(self, frame, below, head, tail, merge_in, left, right, merged):
        """The frame data that ``_bar_terms`` reads, for the listed ``frame``.

        ``head``, ``tail`` and ``merge_in[i - 1]`` are the (simplex, objects)
        of the input frames of the left action, the right action and the
        i-th merge, looked up in ``below``, the ``FrameIndex`` one degree
        down.  ``left(b_1)`` and ``right(b_q)`` are the blocks of the first
        and last argument, sign folded in; ``merged((i, b_i, b_{i+1}))``
        gives the (basis index, coordinate) pairs of the composite a_i
        a_{i+1}.  Each is memoized for the frame, and so is the unit block of
        each (coordinate, parity of i).

        With slot sizes s_1..s_q and T_j = s_{j+1} ... s_q, the cell at
        position k = sum_j pos_j T_j of the frame reads the head's cell at
        k mod T_1, the tail's at k div s_q, and the i-th merge's, whose slot
        m replaces slots i and i+1, at (k div T_{i-1}) s_m T_{i+1} +
        pos_m(b) T_{i+1} + k mod T_{i+1}.
        """
        F = self.field
        rank, slots = frame[2], frame[3]
        T = [1]  # T[j] = s_{j+1} ... s_q, filled from the end
        for s in reversed(slots):
            T.append(T[-1] * len(s))
        T.reverse()
        units = Memo(lambda cp: unit_block(F, rank, cp[0], -1 if cp[1] else 1))
        fr = SimpleNamespace(head=None, tail=None, merge_in=[], lefts=Memo(left),
                             rights=Memo(right))
        if not slots:
            return fr
        at = below.at
        head, tail, *merge_in = [at.get((s.source, s.arrows, objects))
                                 for s, objects in [head, tail] + merge_in]
        if head is not None:
            fr.head = (head[4], head[2], T[1])
        if tail is not None:
            fr.tail = (tail[4], tail[2], len(slots[-1]))
        for i, m in enumerate(merge_in, 1):  # (k div, outer step, k mod, rank) per merge
            fr.merge_in.append(m and (T[i - 1], len(m[3][i - 1]) * m[2] * T[i + 1], T[i + 1], m[2]))

        def merges(key):  # (column but the cell's part, unit block) per listed coordinate
            i, m = key[0], merge_in[key[0] - 1]
            slot, step = m[3][i - 1], m[2] * T[i + 1]
            return [(m[4] + slot.index(b) * step, units[(c, i % 2)])
                    for b, c in merged(key) if not F.is_zero(c) and b in slot]

        fr.merges = Memo(merges)
        return fr

    def _bar_terms(self, fr, btuple, k, row):
        """The Hochschild terms (row, column, block) of the cell with basis
        tuple ``btuple`` at position k of the frame data ``fr``, in rows from
        ``row`` on: a_1 on the left, the merges, a_q on the right.  A
        cell without arguments has none."""
        if fr.head is not None:
            col0, rank, mod = fr.head
            yield row, col0 + rank * (k % mod), fr.lefts[btuple[0]]
        for i, merge in enumerate(fr.merge_in, 1):
            if merge is None:
                continue
            div, outer, mod, rank = merge
            base = k // div * outer + k % mod * rank
            for col, block in fr.merges[(i, btuple[i - 1], btuple[i])]:
                yield row, base + col, block
        if fr.tail is not None:
            col0, rank, div = fr.tail
            yield row, col0 + rank * (k // div), fr.rights[btuple[-1]]

    def value_rank(self, key):
        """The rank of the value module of a cell; it depends only on
        (simplex, objects)."""
        return self._rank_cache[key[0], key[1]]

    def index(self, n):
        """(the cells' first columns as a mapping, dim) of degree n."""
        frames = self._index[n]
        return frames, frames.dim

    def dim(self, n):
        return self._index[n].dim

    def apply_diff(self, phi):
        n = phi.degree + 1
        return apply_matrix(self.matrix(n), phi, self, self, n)

    def matrix(self, n):
        """The differential C^{n-1} -> C^n as a sparse matrix."""
        return pull_matrix(self.diff_contributions(n), self.dim(n), self.dim(n - 1), self.field)

    def to_vector(self, phi):
        offsets, dim = self.index(phi.degree)
        F = self.field
        vec = [F.zero] * dim
        for key, val in phi.data.items():
            off = offsets.get(key)
            if off is None:
                if any(not F.is_zero(v) for v in val):
                    raise KeyError("cochain supported outside the complex's cells: %r" % (key,))
                continue
            for i, v in enumerate(val):
                vec[off + i] = v
        return vec

    def from_vector(self, n, vec):
        phi = SparseCochain(self, n)
        F = self.field
        for simplex, objects, rank, slots, off in self._index[n].frames:
            for btuple in product(*slots):
                val = vec[off: off + rank]
                if any(not F.is_zero(v) for v in val):
                    phi.data[(simplex, objects, btuple)] = list(val)
                off += rank
        return phi

    def random_cochain(self, n, seed):
        rng = random.Random(seed)
        F = self.field
        phi = SparseCochain(self, n)
        for key in self.cells(n):
            vec = [F.from_int(rng.randint(-2, 2)) for _ in range(self.value_rank(key))]
            if any(not F.is_zero(v) for v in vec):
                phi.data[key] = vec
        return phi
