"""Shared machinery for sparsely stored cochain complexes.

A concrete complex supplies cell enumeration and value ranks; every operator
between complexes (the differentials d and delta, the comparison maps F and G,
the homotopy T) is given pull-style: for each output cell ``key`` it yields
terms ``(in_key, block)``, where ``block`` is the matrix of a linear map from
the value coordinates at ``in_key`` to those at ``key``, stored as a dict
``{(r, b): v}`` with the term's sign folded in (``lincat`` builds blocks).
The operator sends a cochain phi to the cochain whose value at ``key`` is the
sum of ``block . phi[in_key]`` over the terms.

``pull_matrix`` is the only consumer of a term stream: it assembles the
operator's matrix, which ``apply_matrix`` applies to a cochain as to_vector
in the input complex, matvec, from_vector in the output complex.  So a
cochain is read in the coordinates of the complex whose matrix is applied,
whichever complex holds it: an ``NrComplex`` cochain passed to the GS
differential is read in GS coordinates.  Coordinate conversion and random
cochains also live here.

A cell is a frame, its (simplex, objects) pair, plus a basis tuple, and
``cells(n)`` lists each frame's cells one after another.  A complex's
``_frame`` step computes once what every cell of a frame reads (faces,
composites, functors, the blocks that read no argument) and memoizes per
basis index, in ``combinatorics.Memo``s, the blocks that read one.  Only the
most recent frame is kept, in one slot that is rebuilt when the frame
changes; a term stream holds on to the frame it started with, so streams of
different frames may interleave.

Both complexes share their Hochschild part: the bar differential of the
fibers (GS) or of the Grothendieck construction (graded).  ``_bar_terms`` is
its one kernel.  It yields a cell's terms from the frame that ``_bar_frame``
builds: a_1 acting on the left, each adjacent pair a_i a_{i+1} merged, as
unit blocks of (-1)^i times the composite's coordinates, and a_q acting on
the right.  A complex supplies only the input frames and the blocks.

A block holds no zeros: every block builder in ``lincat`` and the complexes
drops them, and ``pull_matrix`` relies on it, checking for zeros only in the
sums where two terms meet.  A block may be shared between terms: a complex
may memoize blocks on the data they depend on, for its life or for one frame,
and hand the same dict to many terms and cells.  So no consumer mutates a
block; ``pull_matrix`` only reads them, and ``lincat.compose_blocks`` and
``scale_block`` return new dicts.
"""

from __future__ import annotations

import random
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

    def add_to(self, key, vec, scale=None):
        F = self.complex.field
        cur = self.data.get(key)
        if cur is None:
            cur = [F.zero] * len(vec)
        if scale is None:
            new = [F.add(a, b) for a, b in zip(cur, vec)]
        else:
            new = [F.add(a, F.mul(scale, b)) for a, b in zip(cur, vec)]
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


def pull_matrix(contrib, out_keys, out_index, in_index, field):
    """The matrix of the term stream ``contrib`` on the given bases.

    ``out_index`` and ``in_index`` are (offsets by key, dim) pairs; terms whose
    input key has no offset are dropped, rows follow ``out_keys``.  Entries
    are summed in place with ``field.add``.  A block holds no zeros, so only
    a sum can be zero: each row in which a sum was zero when formed is
    noted, and its zeros are dropped once the rows are complete.
    """
    out_off, out_dim = out_index
    in_off, in_dim = in_index
    add, is_zero = field.add, field.is_zero
    rows = [{} for _ in range(out_dim)]
    zero_rows = []  # a row is noted again only after another row was
    for key in out_keys:
        row0 = out_off[key]
        for in_key, block in contrib(key):
            col0 = in_off.get(in_key)
            if col0 is None:
                continue
            for (r, b), v in block.items():
                row = rows[row0 + r]
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
    return SparseMatrix(out_dim, in_dim, field, rows)


def apply_matrix(mat, phi, in_complex, out_complex, n):
    """``mat`` applied to ``phi`` read in the coordinates of ``in_complex``,
    as a degree-n cochain of ``out_complex``."""
    return out_complex.from_vector(n, mat.matvec(in_complex.to_vector(phi)))


class ComplexBase:
    """Cell bookkeeping plus differential application and assembly."""

    def __init__(self, field):
        self.field = field
        self._cells = {}
        self._index = Memo(lambda n: self._offsets(self.cells(n)))
        self._rank_cache = Memo(lambda frame: self._rank(*frame))
        self._slot = (None, None)  # the most recent frame: its key and its data

    # subclasses: cells(n) -> list of keys, _rank(simplex, objects) -> int,
    # _new_frame(simplex, objects, n) -> frame data (a _bar_frame namespace),
    # diff_contributions(key, n) -> iterable of (in_key, block)

    def _frame(self, simplex, objects, n):
        """The data of the frame (simplex, objects) in degree n, which every
        cell of the frame reads.  Only the most recent frame is kept: cells(n)
        lists each frame's cells one after another."""
        key = (simplex, objects, n)
        if self._slot[0] != key:
            self._slot = (key, self._new_frame(simplex, objects, n))
        return self._slot[1]

    def _bar_frame(self, simplex, objects, head, tail, merge_in, left, right, merged):
        """The frame data that ``_bar_terms`` reads, for the frame (simplex, objects).

        ``head``, ``tail`` and ``merge_in[i - 1]`` are the (simplex, objects) of
        the input cells of the left action, the right action and the i-th
        merge.  ``left(b_1)`` and ``right(b_q)`` are the blocks of the first
        and last argument, sign folded in; ``merged((i, b_i, b_{i+1}))`` gives
        the (basis index, coordinate) pairs of the composite a_i a_{i+1}.
        Each is memoized for the frame, and so is the unit block of each
        (coordinate, parity of i).
        """
        F = self.field
        rank = self.value_rank((simplex, objects, None))
        units = Memo(lambda cp: unit_block(F, rank, cp[0], -1 if cp[1] else 1))
        return SimpleNamespace(
            head=head, tail=tail, merge_in=merge_in, lefts=Memo(left), rights=Memo(right),
            merges=Memo(lambda k: [(b, units[(c, k[0] % 2)]) for b, c in merged(k)
                                   if not F.is_zero(c)]),
            units=units)

    def _bar_terms(self, fr, btuple):
        """The Hochschild terms (in_key, block) of the cell with basis tuple
        ``btuple`` in the frame ``fr``: a_1 on the left, the merges, a_q on the
        right.  A cell without arguments has none."""
        if not btuple:
            return
        simplex, objects = fr.head
        yield (simplex, objects, btuple[1:]), fr.lefts[btuple[0]]
        for i in range(1, len(btuple)):
            simplex, objects = fr.merge_in[i - 1]
            for b, block in fr.merges[(i, btuple[i - 1], btuple[i])]:
                yield (simplex, objects, btuple[: i - 1] + (b,) + btuple[i + 1 :]), block
        simplex, objects = fr.tail
        yield (simplex, objects, btuple[:-1]), fr.rights[btuple[-1]]

    def value_rank(self, key):
        """The rank of the value module of a cell; it depends only on
        (simplex, objects)."""
        return self._rank_cache[key[0], key[1]]

    def index(self, n):
        return self._index[n]

    def dim(self, n):
        return self.index(n)[1]

    def apply_diff(self, phi):
        n = phi.degree + 1
        return apply_matrix(self.matrix(n), phi, self, self, n)

    def matrix(self, n):
        """The differential C^{n-1} -> C^n as a sparse matrix."""
        return pull_matrix(lambda key: self.diff_contributions(key, n), self.cells(n),
                           self.index(n), self.index(n - 1), self.field)

    def _offsets(self, keys):
        offsets = {}
        dim = 0
        for key in keys:
            offsets[key] = dim
            dim += self.value_rank(key)
        return offsets, dim

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
        offsets = self.index(n)[0]
        for key in self.cells(n):
            off = offsets[key]
            r = self.value_rank(key)
            val = list(vec[off: off + r])
            if any(not F.is_zero(v) for v in val):
                phi.data[key] = val
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
