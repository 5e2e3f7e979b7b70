"""Exact scalars and sparse matrices.

Everything downstream (differentials, comparison maps, cohomology) reduces to
rank and kernel computations over an exact field: the rationals or a prime
field.  No floating point appears anywhere; equality checks are exact and
tolerance is zero.  A rational is a Python int while it is integral and a
``Fraction`` in lowest terms otherwise (see ``RationalField``), so integer
structure constants never pay for ``Fraction`` arithmetic.  Dual numbers (for
deformation checks) are a ring, not a field; systems over them are solved as
block systems over the base field.

Elimination has one core, ``SparseMatrix._echelon``, which accepts only Q and
F_p and works on rows of Python ints:

- over Q each row is scaled to a primitive integer row (clear denominators,
  divide by the gcd of the entries); a step r <- a r - b p is fraction-free
  and divides the common factor out again, so no Fraction arithmetic runs
  inside the loop;
- over F_p entries are ints mod p and pivot rows are scaled to pivot 1.

It is left-looking with one rule: rows are taken shortest first, each is
reduced by the earlier pivots in the order they were created and pivoted at
its leading column, and the input row is released once reduced.  ``rank``
and ``rref_pivots`` share this elimination; the latter then back-substitutes
to the reduced row echelon form, which is unique, so kernels and solutions do
not depend on row order.  Elimination stops once every column holds a pivot,
since no row left can add to the rank.

``betti_numbers`` ranks a complex d_1, d_2, ... in order and compresses each
rank by the one before, as persistent homology's clearing and compression do
(Chen-Kerber 2011; Bauer-Kerber-Reininghaus 2014): the input rows at which
d_n's rank found pivots give coordinates on which im d_n projects
one-to-one, and d_{n+1}, which kills im d_n, is ranked without those
columns.  This is exact, and sound only after d_{n+1} d_n = 0 has been
checked, which ``betti_numbers`` does for every pair before any rank.  That
check, ``SparseMatrix.product_is_zero``, builds no product matrix and makes
no field method call per term: it sums each product row with native int and
Fraction arithmetic, over F_p reduced mod p once per entry, and stops at the
first nonzero row.  ``mul`` builds the product, for the ``verify`` laws.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class RationalField:
    """The field Q, a scalar stored as an int when integral, else a Fraction.

    Every result is normalised: an integral value is a Python int, anything
    else a ``Fraction`` in lowest terms with denominator > 1.  Most scalars
    (0, 1, structure constants, the entries of differentials) are integers, so
    arithmetic stays on ints until a division.  The two forms compare and
    hash alike (``Fraction(3) == 3``) and print alike, so keys and written
    files do not depend on which one a value happens to be.
    """

    name = "Q"

    zero = 0
    one = 1

    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _q(Fraction(1, a))

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def from_int(self, n):
        return int(n)

    def parse(self, s):
        if isinstance(s, (int, Fraction)):
            return _q(Fraction(s))
        try:
            return _q(Fraction(str(s)))
        except ZeroDivisionError:
            raise ValueError("%s has a zero denominator" % s) from None

    def show(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


def _q(f):
    """A Fraction as a Q scalar: its numerator if integral, else itself."""
    return f.numerator if f.denominator == 1 else f


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751 (> 2**31)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p < 2**31, scalars stored in [0, p)."""

    def __init__(self, p):
        if p < 2 or p >= 2 ** 31:
            raise ValueError("prime must satisfy 2 <= p < 2**31")
        if not is_prime(p):
            raise ValueError("modulus %d is not a prime" % p)
        self.p = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def from_int(self, n):
        return n % self.p

    def parse(self, s):
        if isinstance(s, int):
            return s % self.p
        s = str(s)
        if "/" in s:
            num, den = s.split("/")
            den = int(den) % self.p
            if not den:
                raise ValueError("%s has a denominator divisible by %d" % (s, self.p))
            return self.mul(int(num) % self.p, self.inv(den))
        return int(s) % self.p

    def show(self, a):
        return str(a % self.p)

    def __repr__(self):
        return "GF(%d)" % self.p


class DualNumbers:
    """The ring k[e]/(e^2) over a base field; scalars are pairs (a, b) = a + b e.

    Not a field: (a, b) is invertible iff a is.  Enough structure for
    validating first-order deformations.  The elimination core never sees
    these scalars: ``SparseMatrix.solve`` rewrites a system over k[e] as a
    block system over the base field.
    """

    def __init__(self, base):
        self.base = base
        self.name = base.name + "[e]"
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)
        self.eps = (base.zero, base.one)

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def sub(self, x, y):
        return (self.base.sub(x[0], y[0]), self.base.sub(x[1], y[1]))

    def mul(self, x, y):
        b = self.base
        return (b.mul(x[0], y[0]), b.add(b.mul(x[0], y[1]), b.mul(x[1], y[0])))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def inv(self, x):
        a0 = self.base.inv(x[0])
        # (a + be)^-1 = a^-1 - a^-2 b e
        return (a0, self.base.neg(self.base.mul(self.base.mul(a0, a0), x[1])))

    def is_zero(self, x):
        return self.base.is_zero(x[0]) and self.base.is_zero(x[1])

    def eq(self, x, y):
        return self.base.eq(x[0], y[0]) and self.base.eq(x[1], y[1])

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero)

    def parse(self, s):
        if isinstance(s, (list, tuple)):
            return (self.base.parse(s[0]), self.base.parse(s[1]))
        return (self.base.parse(s), self.base.zero)

    def show(self, x):
        return [self.base.show(x[0]), self.base.show(x[1])]

    def __repr__(self):
        return "Dual(%r)" % self.base


QQ = RationalField()


def make_field(ring):
    """Build a scalar ring from its file-format tag.

    Accepts "Q", {"Fp": p}, "Q[e]" and {"Fp[e]": p}.
    """
    if ring == "Q":
        return QQ
    if ring == "Q[e]":
        return DualNumbers(QQ)
    if isinstance(ring, dict):
        if "Fp" in ring:
            return PrimeField(int(ring["Fp"]))
        if "Fp[e]" in ring:
            return DualNumbers(PrimeField(int(ring["Fp[e]"])))
    raise ValueError("unknown ring tag: %r" % (ring,))


def ring_tag(field):
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, PrimeField):
        return {"Fp": field.p}
    if isinstance(field, DualNumbers):
        base = ring_tag(field.base)
        return "Q[e]" if base == "Q" else {"Fp[e]": field.base.p}
    raise ValueError("unknown field %r" % (field,))


class SparseMatrix:
    """A sparse matrix over an exact field, stored as its rows.

    ``row_data[i]`` is a dict column -> value of row i without zeros.  The
    rows are handed to the constructor and never written afterwards, so a
    result may share rows with its operands.
    """

    def __init__(self, rows, cols, field, row_data=None):
        if row_data is None:
            row_data = [{}] * rows
        elif len(row_data) != rows:
            raise IndexError("%d rows given for a %d-row matrix" % (len(row_data), rows))
        for i, r in enumerate(row_data):
            if r:
                lo, hi = min(r), max(r)
                if lo < 0 or hi >= cols:
                    raise IndexError("entry (%d,%d) out of range"
                                     % (i, lo if lo < 0 else hi))
        self.rows = rows
        self.cols = cols
        self.field = field
        self.row_data = row_data
        self.nnz = sum(map(len, row_data))

    def is_zero(self):
        return not self.nnz

    def col_lists(self):
        cols = [dict() for _ in range(self.cols)]
        for i, r in enumerate(self.row_data):
            for j, v in r.items():
                cols[j][i] = v
        return cols

    def matvec(self, vec):
        F = self.field
        add, mul = F.add, F.mul
        zero = F.zero
        out = [zero] * self.rows
        for i, r in enumerate(self.row_data):
            if r:
                acc = zero
                for j, v in r.items():
                    acc = add(acc, mul(v, vec[j]))
                out[i] = acc
        return out

    def mul(self, other):
        """Sparse product self * other, row by row."""
        if other.rows != self.cols:
            raise ValueError("shape mismatch in matrix product")
        F = self.field
        add, mul, is_zero = F.add, F.mul, F.is_zero
        rows_of_other = other.row_data
        out = []
        for r in self.row_data:
            acc = {}
            for k, v in r.items():
                for j, w in rows_of_other[k].items():
                    cur = acc.get(j)
                    acc[j] = mul(v, w) if cur is None else add(cur, mul(v, w))
            for j in [j for j, x in acc.items() if is_zero(x)]:
                del acc[j]
            out.append(acc)
        return SparseMatrix(self.rows, other.cols, F, out)

    def product_is_zero(self, other):
        """Whether self * other is zero, without building the product (see
        the module docstring).  Q and F_p only, like elimination."""
        if other.rows != self.cols:
            raise ValueError("shape mismatch in matrix product")
        p = _modulus(self.field)
        rows_of_other = other.row_data
        for r in self.row_data:
            acc = {}
            get = acc.get
            for k, v in r.items():
                for j, w in rows_of_other[k].items():
                    acc[j] = get(j, 0) + v * w
            if p:
                if any(x % p for x in acc.values()):
                    return False
            elif any(acc.values()):
                return False
        return True

    def plus(self, other):
        """The sum self + other."""
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ValueError("shape mismatch in matrix sum")
        F = self.field
        out = []
        for a, b in zip(self.row_data, other.row_data):
            if not b or not a:
                out.append(a or b)
                continue
            r = dict(a)
            for j, v in b.items():
                accumulate(F, r, j, v)
            out.append(r)
        return SparseMatrix(self.rows, self.cols, F, out)

    def first_difference(self, other):
        """The first entry (row, column) where this matrix and ``other``, of the
        same shape, differ: the first differing row and its least differing
        column; None if they are equal."""
        eq, zero = self.field.eq, self.field.zero
        for i, (a, b) in enumerate(zip(self.row_data, other.row_data)):
            if a.keys() != b.keys() or not all(eq(v, b[j]) for j, v in a.items()):
                return i, min(j for j in a.keys() | b.keys()
                              if not eq(a.get(j, zero), b.get(j, zero)))
        return None

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.first_difference(other) is None)

    def _integer_rows(self, skip_cols=()):
        """The rows as dicts col -> int without the columns in ``skip_cols``,
        None for a row left zero, and the modulus (0 over Q).

        Over Q each row is scaled to a primitive integer row (denominators
        cleared, then divided by the gcd of its entries), which spans the same
        line; over F_p entries are already ints mod p.
        """
        p = _modulus(self.field)
        rows = [{j: v for j, v in r.items() if j not in skip_cols} or None
                for r in self.row_data]
        if p:
            return rows, p
        for r in rows:
            if r:
                den = lcm(*(v.denominator for v in r.values()))
                for j, v in r.items():
                    r[j] = v.numerator * (den // v.denominator)
                _divide_content(r)
        return rows, p

    def _echelon(self, skip_cols=(), pivot_rows=None):
        """Left-looking sparse elimination on integer rows.

        Returns the pivots in creation order as (col, row) pairs, each row
        reduced against every earlier pivot and pivoted at its first column,
        and the modulus.  The columns in ``skip_cols`` are left out, and
        ``pivot_rows``, if a list, receives the input row index of each
        pivot.  Elimination stops once every column left holds a pivot: the
        rest of the rows then reduce to zero.
        """
        rows, p = self._integer_rows(skip_cols)
        order = [i for i, r in enumerate(rows) if r]
        # Shortest rows first, popped from the end of a stable sort, so of
        # rows of one length the last comes first.  Short rows make sparse
        # pivots: ranking the whole 16384x2048 graded d4 of rank2-fiber in
        # input order is about 20 times slower.
        order.sort(key=lambda i: len(rows[i]), reverse=True)
        free = self.cols - len(skip_cols)
        pivots = []
        index = {}  # pivot col -> position in pivots
        while order and len(pivots) < free:
            i = order.pop()
            r = rows[i]
            rows[i] = None
            # Earlier pivots are applied in creation order: pivot k holds no
            # column of pivots 0..k-1, so it never brings one back.
            todo = [index[j] for j in r if j in index]
            heapify(todo)
            while todo:
                c, prow = pivots[heappop(todo)]
                if c in r:
                    for j in _reduce(r, prow, c, p):
                        if j in index:
                            heappush(todo, index[j])
            if r:
                c = min(r)
                if p and r[c] != 1:
                    inv = pow(r[c], p - 2, p)
                    for j, v in r.items():
                        r[j] = v * inv % p
                index[c] = len(pivots)
                pivots.append((c, r))
                if pivot_rows is not None:
                    pivot_rows.append(i)
        return pivots, p

    def rank(self, *, skip_cols=(), pivot_rows=None):
        """The rank, of the columns not in ``skip_cols`` if it is given.

        ``pivot_rows``, if a list, receives the input row index of each pivot:
        as many rows as the rank, independent, so they span the row space of
        the columns ranked.
        """
        return len(self._echelon(frozenset(skip_cols), pivot_rows)[0])

    def rref_pivots(self):
        """Fully reduced pivot rows, as a dict col -> row dict (pivot 1).

        The reduced row echelon form is unique, so this does not depend on
        row order.
        """
        pivots, p = self._echelon()
        index = {c: k for k, (c, _) in enumerate(pivots)}
        # Back-substitute from the last pivot: every row after k is already
        # free of all other pivot columns, so reducing by it adds none.
        for k in range(len(pivots) - 1, -1, -1):
            c, r = pivots[k]
            for j in [j for j in r if j in index and j != c]:
                _reduce(r, pivots[index[j]][1], j, p)
        if p:
            return dict(pivots)
        return {c: {j: _q(Fraction(v, r[c])) for j, v in r.items()}
                for c, r in pivots}

    def kernel_basis(self):
        """Basis of the null space; length = cols - rank."""
        F = self.field
        pivots = self.rref_pivots()
        pivot_cols = set(pivots)
        free_cols = [j for j in range(self.cols) if j not in pivot_cols]
        basis = []
        for f in free_cols:
            vec = [F.zero] * self.cols
            vec[f] = F.one
            for c, row in pivots.items():
                coef = row.get(f)
                if coef is not None:
                    vec[c] = F.neg(coef)
            basis.append(vec)
        return basis

    def solve(self, b):
        """One solution x of self * x = b, or None if inconsistent."""
        F = self.field
        if isinstance(F, DualNumbers):
            return self._solve_dual(b)
        rows = [dict(r) for r in self.row_data]
        for r, v in zip(rows, b):
            if not F.is_zero(v):
                r[self.cols] = v
        pivots = SparseMatrix(self.rows, self.cols + 1, F, rows).rref_pivots()
        if self.cols in pivots:
            return None
        x = [F.zero] * self.cols
        for c, row in pivots.items():
            x[c] = row.get(self.cols, F.zero)
        return x

    def _solve_dual(self, b):
        """Solve over k[e] as a block system over k.

        With A = A0 + A1 e, b = b0 + b1 e and x = x0 + x1 e, A x = b says
        A0 x0 = b0 and A1 x0 + A0 x1 = b1, i.e. [[A0, 0], [A1, A0]] [x0; x1]
        = [b0; b1].
        """
        K = self.field.base
        n, m = self.rows, self.cols
        top = [{j: v0 for j, (v0, _) in r.items() if not K.is_zero(v0)}
               for r in self.row_data]
        bottom = [{j: v1 for j, (_, v1) in r.items() if not K.is_zero(v1)}
                  for r in self.row_data]
        for r, t in zip(bottom, top):
            for j, v0 in t.items():
                r[m + j] = v0
        block = SparseMatrix(2 * n, 2 * m, K, top + bottom)
        x = block.solve([v[0] for v in b] + [v[1] for v in b])
        if x is None:
            return None
        return [(x[j], x[m + j]) for j in range(m)]

    # -- triplet text format ------------------------------------------------

    def to_triplet_text(self):
        """First line "rows cols nnz", then one "i j value" line per entry."""
        show = self.field.show
        lines = ["%d %d %d" % (self.rows, self.cols, self.nnz)]
        for i, r in enumerate(self.row_data):
            for j in sorted(r):
                lines.append("%d %d %s" % (i, j, show(r[j])))
        return "\n".join(lines) + "\n"


def _modulus(F):
    """0 for Q, p for F_p; a TypeError for any other ring."""
    if isinstance(F, RationalField):
        return 0
    if isinstance(F, PrimeField):
        return F.p
    raise TypeError("elimination needs a field (Q or F_p), not %r" % (F,))


def accumulate(F, d, key, v):
    """d[key] += v in place, dropping the key when the sum is zero."""
    cur = d.get(key)
    if cur is not None:
        v = F.add(cur, v)
    if F.is_zero(v):
        d.pop(key, None)
    else:
        d[key] = v


def _reduce(r, prow, c, p):
    """Cancel column c of row r against pivot row prow, in place.

    Over F_p (p > 0) prow[c] is 1 and the step is r <- r - r[c] prow.  Over Q
    (p = 0) it is fraction-free, r <- a r - b prow with a = prow[c]/g and
    b = r[c]/g for g = gcd(prow[c], r[c]), after which r is divided by the
    gcd of its entries.  Returns the columns the step added to r.
    """
    b = r[c]
    added = []
    if p:
        for j, v in prow.items():
            w = r.get(j)
            if w is None:
                r[j] = -b * v % p
                added.append(j)
            else:
                w = (w - b * v) % p
                if w:
                    r[j] = w
                else:
                    del r[j]
        return added
    a = prow[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in prow.items():
        w = r.get(j)
        if w is None:
            r[j] = -b * v
            added.append(j)
        else:
            w -= b * v
            if w:
                r[j] = w
            else:
                del r[j]
    _divide_content(r)
    return added


def _divide_content(r):
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*r.values())
    if g > 1:
        for j in r:
            r[j] //= g


def betti_numbers(diffs):
    """dim ker(d_out) - rank(d_in) at each position between consecutive maps.

    ``diffs[n]`` maps into the space that ``diffs[n + 1]`` maps out of; the
    result has one entry per consecutive pair and ranks each map once.
    Rejects pairs whose composite is not zero, before any rank.

    The ranks compress along the complex.  The rows S of d_in on which its
    rank found pivots span its row space, so im d_in projects one-to-one onto
    the coordinates S, and the coordinate vectors outside S span a complement
    of im d_in.  Since d_out kills im d_in, d_out has the rank of its columns
    outside S, and those are all that it is ranked on.  This holds only
    because every composite was checked to be zero first.
    """
    for d_in, d_out in zip(diffs, diffs[1:]):
        if d_in.cols != 0 and d_out.cols != d_in.rows:
            raise ValueError("d_out and d_in do not share the middle space")
        if d_in.cols != 0 and not d_out.product_is_zero(d_in):
            raise ValueError("d_out . d_in != 0: not a complex position")
    ranks = []
    pivot_rows = []
    for d in diffs:
        skip_cols, pivot_rows = pivot_rows, []
        ranks.append(d.rank(skip_cols=skip_cols, pivot_rows=pivot_rows))
    return [(d_out.cols - r_out) - r_in
            for d_out, r_in, r_out in zip(diffs[1:], ranks, ranks[1:])]
