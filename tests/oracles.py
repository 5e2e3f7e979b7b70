"""Independent oracles the main code is checked against.

These deliberately avoid the library's sparse elimination, nerve enumeration,
shuffle machinery and differential formulas: dense textbook Gaussian
elimination, double loops, permutation filters, and a direct-summation
Hochschild differential for one-object fibers.  The exception is
``higher_terms_bruteforce``: it sums the GS higher components one path and one
shuffle at a time with the library's enumerations, so it checks the
coarsening dynamic programming of ``GSComplex.higher_terms``, not the formula.
"""

from fractions import Fraction
from itertools import permutations, product

from prestacks.combinatorics import Path, ShufflePerm, enumerate_shuffles, paths_or_trivial
from prestacks.gscomplex import eval_shuffle, expand_multilinear
from prestacks.lincat import NatTransform, compose_functor_chain, compose_functors


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


# -- formal shuffles and the join/split of paths ----------------------------------
# Paper-level constructions that no library operator needs; tests check the
# shuffle and path enumerations against them.


def formal_shuffle(beta, sequences):
    """Interleave per-block sequences according to the shuffle word."""
    sequences = [list(s) for s in sequences]
    if tuple(len(s) for s in sequences) != beta.blocks:
        raise ValueError("sequence lengths do not match shuffle blocks")
    its = [iter(s) for s in sequences]
    return [next(its[b]) for b in beta.word]


def nerve_shuffle(beta, simplices):
    """The shuffle action on nerves of a product category, formally.

    Each input simplex is (objects, entries) with objects target-last and
    entries target-first (entry i maps objects[-i-1] -> objects[-i]).
    Returns (product_objects, product_entries): entries are tuples holding the
    moving block's morphism and ("id", obj) markers elsewhere.
    """
    k = len(simplices)
    objs = [list(s[0]) for s in simplices]
    entries = [list(s[1]) for s in simplices]
    if tuple(len(e) for e in entries) != beta.blocks:
        raise ValueError("simplex lengths do not match shuffle blocks")
    consumed = [0] * k
    prod_entries = []
    prod_objects = [tuple(o[-1] for o in objs)]
    for b in beta.word:
        cur = []
        for i in range(k):
            pos = len(objs[i]) - 1 - consumed[i]
            if i == b:
                cur.append(entries[i][consumed[i]])
            else:
                cur.append(("id", objs[i][pos]))
        consumed[b] += 1
        prod_entries.append(tuple(cur))
        prod_objects.append(tuple(objs[i][len(objs[i]) - 1 - consumed[i]] for i in range(k)))
    prod_objects.reverse()
    return prod_objects, prod_entries


def whisker(pre, t, post):
    """The natural transformation (post) o t o (pre).

    ``pre`` and ``post`` are functor chains in composition order (last entry
    applied first).  The component at A is post(t at pre(A)).
    """
    pre_f = compose_functor_chain(list(pre), t.src_functor.src_cat)
    post_f = compose_functor_chain(list(post), t.src_functor.tgt_cat)
    comps = {}
    for a in pre_f.src_cat.objects:
        comps[a] = post_f.apply(t.at(pre_f.on_obj(a)))
    src = compose_functors(post_f, compose_functors(t.src_functor, pre_f))
    tgt = compose_functors(post_f, compose_functors(t.tgt_functor, pre_f))
    return NatTransform(src, tgt, comps)


def functor_chain_shuffle(beta, chains):
    """Shuffle nerve simplices of functor categories at composable levels,
    composing functors as the chains interleave.

    ``chains`` lists per block (functors, transforms): ``functors`` is the
    object chain target-last, ``transforms`` the entries target-first (entry i
    maps functors[-i-1] -> functors[-i]).  Level 1 is innermost (applied
    first).  Returns the whiskered transform entries of the shuffled chain,
    target-first.
    """
    k = len(chains)
    if tuple(len(c[1]) for c in chains) != beta.blocks:
        raise ValueError("chain lengths do not match shuffle blocks")
    consumed = [0] * k
    out = []
    for b in beta.word:
        functors, transforms = chains[b]
        t = transforms[consumed[b]]
        pre = []
        for i in range(b):
            fs, _ = chains[i]
            pre.append(fs[len(fs) - 1 - consumed[i]])
        post = []
        for i in range(b + 1, k):
            fs, _ = chains[i]
            post.append(fs[len(fs) - 1 - consumed[i]])
        # chains are listed innermost-first; whisker wants composition order
        out.append(whisker(list(reversed(pre)), t, list(reversed(post))))
        consumed[b] += 1
    return out


def conditioned_split(beta, sequences):
    """Split the formal shuffle of a conditioned shuffle into its level runs.

    Returns (gammas, runs): ``gammas`` are the run lengths (summing to n) and
    ``runs`` the per-level lists of (block, element) pairs; concatenating the
    runs recovers the formal shuffle.
    """
    if not beta.is_conditioned():
        raise ValueError("shuffle is not conditioned")
    sequences = [list(s) for s in sequences]
    if tuple(len(s) for s in sequences) != beta.blocks:
        raise ValueError("sequence lengths do not match shuffle blocks")
    its = [iter(s) for s in sequences]
    flat = [(b, next(its[b])) for b in beta.word]
    starts = []
    seen = set()
    for pos, b in enumerate(beta.word):
        if b not in seen:
            seen.add(b)
            starts.append(pos)
    starts.append(len(flat))
    runs = [flat[starts[i]: starts[i + 1]] for i in range(len(starts) - 1)]
    gammas = [len(r) for r in runs]
    return gammas, runs


def join_paths(k, r, s, beta, base):
    """Assemble the path (c^{sigma,k}, beta(r, s)) on the concatenated chain.

    ``r`` is a path on the right part (arrows k+1..n), ``s`` on the left part
    (arrows 1..k), and beta is an (n-k-1, k-1)-shuffle of their entry lists.
    """
    arrows = s.arrows + r.arrows
    n = len(arrows)
    if beta.blocks != (r.n - 1, s.n - 1):
        raise ValueError("shuffle blocks do not match path lengths")
    # interleave displayed entries, then convert to a recipe by reversing
    r_steps = list(reversed(r.recipe))  # displayed order of r's merges
    s_steps = list(reversed(s.recipe))
    merged_displayed = []
    ir = istd = 0
    for b in beta.word:
        if b == 0:
            merged_displayed.append(("r", r_steps[ir]))
            ir += 1
        else:
            merged_displayed.append(("s", s_steps[istd]))
            istd += 1
    recipe = []
    len_l = k
    for side, i in reversed(merged_displayed):
        if side == "s":
            recipe.append(i)
            len_l -= 1
        else:
            recipe.append(len_l + i)
    recipe.append(1)  # final merge: c of the two composites
    return Path(tuple(arrows), tuple(recipe))


def split_path(omega, base):
    """Invert join_paths: recover (k, r, s, beta) from a path whose displayed
    first entry is c^{sigma,k}.  Raises if the final merge straddles no clean cut."""
    arrows = omega.arrows
    n = len(arrows)
    # replay the recipe on slot coverages
    cover = [(i, i) for i in range(n)]
    events = []
    for i in omega.recipe:
        lo1, hi1 = cover[i - 1]
        lo2, hi2 = cover[i]
        events.append(((lo1, hi1), (lo2, hi2)))
        cover = cover[: i - 1] + [(lo1, hi2)] + cover[i + 1 :]
    (lo1, hi1), (lo2, hi2) = events[-1]
    if lo1 != 0 or hi2 != n - 1:
        raise ValueError("path does not end with a full left/right merge")
    kk = hi1 + 1
    if not (1 <= kk <= n - 1):
        raise ValueError("malformed final merge")
    word = []
    for (a, b_), (c, d) in events[:-1]:
        if d < kk:  # merge inside the left part
            word.append(1)
        elif a >= kk:  # inside the right part
            word.append(0)
        else:
            raise ValueError("a merge straddles the cut; first entry is not c^{sigma,k}")
    s_path = _replay_side(arrows[:kk], [e for e in events[:-1] if e[1][1] < kk])
    r_path = _replay_side(arrows[kk:], [((a - kk, b_ - kk), (c - kk, d - kk))
                                        for (a, b_), (c, d) in events[:-1] if a >= kk])
    word.reverse()  # events were applied order; displayed order is reversed
    beta = ShufflePerm((len(arrows[kk:]) - 1, kk - 1), tuple(word))
    return kk, r_path, s_path, beta


def _replay_side(arrows, side_events):
    """Reconstruct a side path from its merge events (given in applied order)."""
    n = len(arrows)
    cover = [(i, i) for i in range(n)]
    recipe = []
    for (a, b_), (c, d) in side_events:
        idx = None
        for pos in range(len(cover) - 1):
            if cover[pos] == (a, b_) and cover[pos + 1] == (c, d):
                idx = pos + 1
                break
        if idx is None:
            raise ValueError("inconsistent side events")
        recipe.append(idx)
        cover = cover[: idx - 1] + [(a, d)] + cover[idx + 1 :]
    return Path(tuple(arrows), tuple(recipe))


def higher_terms_bruteforce(C, key, j):
    """The component d_j of a GS complex at the output cell ``key``, summed
    term by term: every path on the right part R of the simplex times every
    (q, j-1)-shuffle, each evaluated by ``eval_shuffle`` and expanded over hom
    bases.  Returns {input key: coefficient}, zero sums left out.
    """
    P, F = C.P, C.field
    simplex, objects, btuple = key
    q = len(btuple)
    pp = simplex.p - j
    left = P.base.left_part(simplex, pp)
    args = [C.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
    sgn_t = -1 if q % 2 else 1
    out = {}
    for path in paths_or_trivial(simplex.arrows[pp:]):
        for beta in enumerate_shuffles((q, j - 1)):
            entries, sh_objects = eval_shuffle(P, path, args, list(objects), beta.word)
            sgn = sgn_t * path.sign * beta.sign
            for coeff, nb in expand_multilinear(F, entries):
                k = (left, tuple(sh_objects), nb)
                out[k] = F.add(out.get(k, F.zero), coeff if sgn == 1 else F.neg(coeff))
    return {k: v for k, v in out.items() if not F.is_zero(v)}
