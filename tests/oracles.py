"""Independent oracles the main code is checked against.

These deliberately avoid the library's sparse elimination, nerve enumeration,
shuffle machinery and differential formulas: dense textbook Gaussian
elimination, double loops, permutation filters, and a direct-summation
Hochschild differential for one-object fibers.
"""

from fractions import Fraction
from itertools import permutations, product


def dense_rank(rows_of_entries, nrows, ncols):
    """Naive dense Gaussian elimination over Q."""
    m = [[Fraction(0)] * ncols for _ in range(nrows)]
    for (i, j), v in rows_of_entries.items():
        m[i][j] = Fraction(v)
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def dense_rank_of_sparse(mat):
    return dense_rank(dict(mat.data), mat.rows, mat.cols)


def dense_rref(rows_of_entries, nrows, ncols, p=None):
    """Textbook dense Gauss-Jordan elimination, over Q or (given p) F_p.

    Returns the reduced rows and their pivot columns.
    """
    if p is None:
        zero, norm, inv = Fraction(0), Fraction, lambda x: 1 / x
    else:
        zero, norm, inv = 0, lambda x: x % p, lambda x: pow(x, p - 2, p)
    m = [[zero] * ncols for _ in range(nrows)]
    for (i, j), v in rows_of_entries.items():
        m[i][j] = norm(v)
    pivot_cols = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        s = inv(m[row][col])
        m[row] = [norm(x * s) for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [norm(a - c * b) for a, b in zip(m[r], m[row])]
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break
    return m[:row], pivot_cols


def dense_kernel(rows_of_entries, nrows, ncols, p=None):
    """Null space read off the RREF: one vector per free column, in order."""
    rref, pivot_cols = dense_rref(rows_of_entries, nrows, ncols, p)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for row, c in zip(rref, pivot_cols):
            vec[c] = -row[f] if p is None else -row[f] % p
        basis.append(vec)
    return basis


def count_composable_pairs(cat):
    """Double loop over arrow pairs; oracle for nerve(2) size."""
    count = 0
    for f in cat.arrow_ids:
        for g in cat.arrow_ids:
            if cat.tgt(f) == cat.src(g):
                count += 1
    return count


def shuffle_filter_count(blocks):
    """Count block-monotone permutations by filtering all of S_n."""
    n = sum(blocks)
    starts = [0]
    for b in blocks[:-1]:
        starts.append(starts[-1] + b)
    count = 0
    for p in permutations(range(n)):
        ok = True
        for i, b in enumerate(blocks):
            lo, hi = starts[i], starts[i] + b
            vals = [x for x in p if lo <= x < hi]
            if vals != sorted(vals):
                ok = False
                break
        if ok:
            count += 1
    return count


def classical_hochschild(algebra_mul, basis, identity_index, phi, args):
    """Direct-summation Hochschild differential for a one-object algebra.

    ``algebra_mul(i, j)`` returns the product of basis elements as a dict
    index -> Fraction.  ``phi`` maps basis tuples to dicts; ``args`` is the
    output tuple (a_1, ..., a_q) of basis indices, slot 1 the morphism
    closest to the target.  Returns a dict index -> Fraction.
    """
    q = len(args)
    out = {}

    def add_scaled(d, c):
        for k, v in d.items():
            out[k] = out.get(k, Fraction(0)) + c * v

    def phi_at(tup):
        return phi.get(tuple(tup), {})

    # i = 0: a_1 . phi(a_2..a_q)
    inner = phi_at(args[1:])
    for k, v in inner.items():
        for kk, c in algebra_mul(args[0], k).items():
            out[kk] = out.get(kk, Fraction(0)) + v * c
    # middles
    for i in range(1, q):
        sign = -1 if i % 2 else 1
        prod_ = algebra_mul(args[i - 1], args[i])
        for k, c in prod_.items():
            add_scaled(phi_at(args[: i - 1] + (k,) + args[i + 1 :]), sign * c)
    # i = q: phi(a_1..a_{q-1}) . a_q
    sign = -1 if q % 2 else 1
    inner = phi_at(args[:-1])
    for k, v in inner.items():
        for kk, c in algebra_mul(k, args[-1]).items():
            out[kk] = out.get(kk, Fraction(0)) + sign * v * c
    return {k: v for k, v in out.items() if v != 0}


def seq_count(part_blocks):
    """|Seq| for a partition, computed multiplicatively (recursion-free)."""
    from math import comb, factorial
    n = sum(part_blocks)
    total = 1
    remaining = n
    for idx, m in enumerate(part_blocks):
        if idx == len(part_blocks) - 1:
            total *= factorial(m - 1)
        elif m >= 2:
            total *= factorial(m - 1) * comb(remaining - 1, m - 1)
        remaining -= m
    return total


def all_composable_tuples_count(cat, p):
    if p == 0:
        return len(cat.objects)
    count = 0
    for combo in product(cat.arrow_ids, repeat=p):
        if all(cat.tgt(combo[i]) == cat.src(combo[i + 1]) for i in range(p - 1)):
            count += 1
    return count
