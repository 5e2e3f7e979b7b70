"""Shared machinery for sparsely stored cochain complexes.

A concrete complex supplies cell enumeration and value ranks; every operator
between complexes (the differentials d and delta, the comparison maps F and G,
the homotopy T) is given pull-style: for each output cell ``key`` it yields
terms ``(in_key, sign, op)`` with ``sign`` in {1, -1} and ``op`` a linear map
from the value coordinates at ``in_key`` to those at ``key``.  The operator
sends a cochain phi to the cochain whose value at ``key`` is the sum of
``sign * op(phi[in_key])`` over the terms.

Two kernels consume such a term stream, and nothing else calls an ``op``:
``pull_apply`` applies the operator to a cochain and ``pull_matrix`` assembles
its matrix.  Coordinate conversion and random cochains also live here.
"""

from __future__ import annotations

import random

from .linalg import SparseMatrix


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

    def scaled(self, c):
        F = self.complex.field
        out = SparseCochain(self.complex, self.degree)
        for k, vec in self.data.items():
            out.data[k] = [F.mul(c, v) for v in vec]
        return out

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


def pull_apply(contrib, out_complex, n, phi):
    """The operator with term stream ``contrib(key)`` applied to ``phi``: a
    degree-n cochain of ``out_complex``."""
    F = out_complex.field
    out = SparseCochain(out_complex, n)
    for key in out_complex.cells(n):
        acc = [F.zero] * out_complex.value_rank(key)
        for in_key, sgn, op in contrib(key):
            vec = phi.data.get(in_key)
            if vec is None:
                continue
            img = op(vec)
            if sgn == 1:
                acc = [F.add(a, b) for a, b in zip(acc, img)]
            else:
                acc = [F.sub(a, b) for a, b in zip(acc, img)]
        if not all(F.is_zero(v) for v in acc):
            out.data[key] = acc
    return out


def pull_matrix(contrib, out_keys, out_index, in_index, in_rank, field):
    """The matrix of the term stream ``contrib`` on the given bases.

    ``out_index`` and ``in_index`` are (offsets by key, dim) pairs; terms whose
    input key has no offset are dropped, rows follow ``out_keys``.
    """
    F = field
    out_off, out_dim = out_index
    in_off, in_dim = in_index
    mat = SparseMatrix(out_dim, in_dim, F)
    for key in out_keys:
        row0 = out_off[key]
        for in_key, sgn, op in contrib(key):
            col0 = in_off.get(in_key)
            if col0 is None:
                continue
            rank_in = in_rank(in_key)
            for b in range(rank_in):
                unit = [F.zero] * rank_in
                unit[b] = F.one
                for r, v in enumerate(op(unit)):
                    if not F.is_zero(v):
                        mat.add_entry(row0 + r, col0 + b, v if sgn == 1 else F.neg(v))
    return mat


class ComplexBase:
    """Cell bookkeeping plus differential application and assembly."""

    def __init__(self, field):
        self.field = field
        self._cells = {}
        self._index = {}

    # subclasses: cells(n) -> list of keys, value_rank(key) -> int,
    # diff_contributions(key, n) -> iterable of (in_key, sign, op)

    def index(self, n):
        if n not in self._index:
            self._index[n] = self._offsets(self.cells(n))
        return self._index[n]

    def dim(self, n):
        return self.index(n)[1]

    def apply_diff(self, phi):
        n = phi.degree + 1
        return pull_apply(lambda key: self.diff_contributions(key, n), self, n, phi)

    def matrix(self, n, keys_in=None, keys_out=None):
        """The differential C^{n-1} -> C^n as a sparse matrix."""
        return pull_matrix(
            lambda key: self.diff_contributions(key, n),
            self.cells(n) if keys_out is None else keys_out,
            self.index(n) if keys_out is None else self._offsets(keys_out),
            self.index(n - 1) if keys_in is None else self._offsets(keys_in),
            self.value_rank, self.field)

    def _offsets(self, keys):
        offsets = {}
        dim = 0
        for key in keys:
            offsets[key] = dim
            dim += self.value_rank(key)
        return offsets, dim

    def to_vector(self, phi, keys=None):
        offsets, dim = self.index(phi.degree) if keys is None else self._offsets(keys)
        F = self.field
        vec = [F.zero] * dim
        for key, val in phi.data.items():
            off = offsets.get(key)
            if off is None:
                if any(not F.is_zero(v) for v in val):
                    raise KeyError("cochain supported outside the chosen basis: %r" % (key,))
                continue
            for i, v in enumerate(val):
                vec[off + i] = v
        return vec

    def from_vector(self, n, vec, keys=None):
        phi = SparseCochain(self, n)
        F = self.field
        use = self.cells(n) if keys is None else keys
        offsets, _ = self.index(n) if keys is None else self._offsets(keys)
        for key in use:
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
