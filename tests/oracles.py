"""Independent oracles the main code is checked against.

These deliberately avoid the library's sparse elimination, nerve enumeration,
shuffle machinery and differential formulas: dense textbook Gaussian
elimination, double loops, permutation filters, and a direct-summation
Hochschild differential for one-object fibers.  The exceptions check how the
library assembles its operators, not the formulas:

- ``higher_terms_bruteforce`` sums the GS higher components one path and one
  shuffle at a time with the library's enumerations, so it checks the
  coarsening dynamic programming that ``higher_terms`` reads;
- the pointwise route (``left_act``, ``right_act``, ``restrict``, the
  ``*_terms`` streams and ``pull_apply``) applies every term of d, delta, F, G
  and T to a value vector as a closure, with the same enumerations; the
  actions go through ``LinearCategory.compose`` and ``LinFunctor.apply``, not
  the block readers, so it checks the blocks and the matrix assembly of the
  library's term streams;
- ``f_terms``, ``g_terms`` and ``t_terms`` read the Seq recursion, the graded
  shuffle product and the Omega recursion term by term (``seq_elements``,
  ``build_graded_string``, ``omega_terms``, ``big_omega_terms`` below), and
  the partition twists as whole natural transformations
  (``c_sigma_partition``), not the library's shape skeletons, one-pass
  strings, path values and memos, so they check those and the
  per-input-cell sums of F and T.

Test-only diagnostics of the paper's constructions also live here: formal
chains of tensor strings with their faces and the chains omega, Omega and
Delta of the homotopy.
"""

from fractions import Fraction
from itertools import permutations, product

from prestacks.basecat import Simplex
from prestacks.combinatorics import (Partition, Path, ShufflePerm, enumerate_shuffles,
                                     eval_path, partition_block_slices, partitions,
                                     paths_or_trivial)
from prestacks.shapes import SeqElement, seqq_elements
from prestacks.complexbase import SparseCochain, apply_matrix, pull_matrix
from prestacks.graded import (GMor, GradedCategory, GradedComplex, string_objects,
                              string_simp)
from prestacks.gscomplex import expand_multilinear
from prestacks.lincat import (Mor, NatTransform, compose_functors, identity_functor,
                              identity_transform)


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


def entry_dict(mat):
    """The nonzero entries of a sparse matrix as a dict (row, col) -> value."""
    return {(i, j): v for i, row in enumerate(mat.row_data) for j, v in row.items()}


def dense_rank_of_sparse(mat):
    return dense_rank(entry_dict(mat), mat.rows, mat.cols)


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


def compose_functor_chain(functors, src_cat):
    """Fold a chain [F1, F2, ..., Fk] into F1 o F2 o ... o Fk (Fk first).

    An empty chain gives the identity functor of ``src_cat``.
    """
    if not functors:
        return identity_functor(src_cat)
    acc = functors[-1]
    for f in reversed(functors[:-1]):
        acc = compose_functors(f, acc)
    return acc


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


def eval_shuffle(P, path, entries, objects, word):
    """Shuffle a fiber simplex through a path of twist transforms, evaluating.

    ``entries`` lists the fiber morphisms target-first, ``objects`` the object
    chain source-first.  ``word`` has 0 for a fiber token and 1 for a path
    token, in output order (target-first).  Returns (entries, objects) of the
    shuffled simplex in the fiber at the path's codomain end.
    """
    base = P.base
    steps = path.steps(base)
    chains = [path.arrows]
    cur = path.arrows
    for (c, i) in steps:
        cur = c[: i - 1] + (base.then(c[i - 1], c[i]),) + c[i + 1 :]
        chains.append(cur)
    m = path.n
    top_obj = base.tgt(path.arrows[-1])
    consumed_f = 0
    consumed_p = 0
    cur_obj = objects[-1]
    out = []
    for tok in word:
        if tok == 0:
            x = entries[consumed_f]
            fun = P.stars(chains[m - 1 - consumed_p], end_obj=top_obj)
            out.append(fun.apply(x))
            consumed_f += 1
            cur_obj = objects[len(objects) - 1 - consumed_f]
        else:
            j = consumed_p + 1  # next displayed path entry r_j
            chain_before, i = steps[m - j - 1]
            eps = P.epsilon_for(chain_before, i)
            out.append(eps.at(cur_obj))
            consumed_p += 1
    if not out:
        fun = P.stars(chains[-1], end_obj=top_obj)
        return [], [fun.on_obj(objects[-1])]
    out_objects = [e.src for e in reversed(out)]
    out_objects.append(out[0].tgt)
    return out, out_objects


def higher_terms(C, key, j):
    """The component d_j of the GS complex ``C`` at the output cell ``key`` as
    {input key: coefficient}: the library's memoized terms of d_j with the
    left part of the simplex attached, in a fresh dict."""
    left = C.P.base.left_part(key[0], key[0].p - j)
    return {(left, in_objects, nb): v for in_objects, nb, v in C._right_terms(key, j)}


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


# -- the pointwise route ----------------------------------------------------------
# Every term of an operator as a closure on value vectors: (in_key, sign, op).


def left_act(cat, b, f, vec):
    """f o m for f: A -> A2 in ``cat`` and m in hom(B, A) with coordinates vec."""
    return list(cat.compose(f, Mor(cat, b, f.src, tuple(vec))).coords)


def right_act(cat, a, vec, b_old, g):
    """m o g for g: B2 -> B in ``cat`` and m in hom(B, A) with coordinates vec,
    B = b_old."""
    return list(cat.compose(Mor(cat, b_old, a, tuple(vec)), g).coords)


def restrict(fu, b, a, vec):
    """The functor fu applied to the morphism B -> A with coordinates vec."""
    return list(fu.apply(Mor(fu.src_cat, b, a, tuple(vec))).coords)


def pull_apply(contrib, out_complex, n, phi):
    """The operator with closure stream ``contrib(key)`` applied to ``phi``: a
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


def pointwise_diff(C, phi):
    """d or delta of ``phi``, applied term by term through the closure streams
    of ``gs_terms`` or ``graded_terms``."""
    n = phi.degree + 1
    terms = graded_terms if isinstance(C, GradedComplex) else gs_terms
    return pull_apply(lambda key: terms(C, key, n), C, n, phi)


def _scaled(F, c, vec):
    return [F.mul(c, v) for v in vec]


def gs_terms(C, key, n):
    """The terms of the GS differential at the degree-n cell ``key``; the
    higher components come from ``higher_terms_bruteforce``."""
    P = C.P
    F = C.field
    base = P.base
    simplex, objects, btuple = key
    p = simplex.p
    q = len(btuple)
    u0 = simplex.source
    fib0 = P.fiber(u0)
    fib = P.fiber(base.objects_along(simplex)[-1])
    args = [C.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
    sgn_simp = -1 if n % 2 else 1  # (-1)^n on d_simp

    # d_Hoch from C^{p, q-1}
    if q >= 1:
        a1 = P.sigma_lower(simplex).apply(args[0])
        b_obj = P.sigma_upper(simplex).on_obj(objects[0])
        yield ((simplex, objects[:-1], btuple[1:]), 1,
               lambda vec, b=b_obj: left_act(fib0, b, a1, vec))
        for i in range(1, q):
            merged = fib.compose(args[i - 1], args[i])
            lo = q - i - 1  # merged morphism spans objects[lo] -> objects[lo+2]
            new_objects = objects[: lo + 1] + objects[lo + 2 :]
            for bm, coeff in enumerate(merged.coords):
                if F.is_zero(coeff):
                    continue
                nb = btuple[: i - 1] + (bm,) + btuple[i + 1 :]
                yield ((simplex, new_objects, nb), -1 if i % 2 else 1,
                       lambda vec, c=coeff: _scaled(F, c, vec))
        aq = P.sigma_upper(simplex).apply(args[q - 1])
        a_obj = P.sigma_lower(simplex).on_obj(objects[-1])
        b_old = P.sigma_upper(simplex).on_obj(objects[1])
        yield ((simplex, objects[1:], btuple[:-1]), -1 if q % 2 else 1,
               lambda vec, a=a_obj, b=b_old: right_act(fib0, a, vec, b, aq))

    # (-1)^n d_simp from C^{p-1, q}
    if p >= 1:
        d0 = base.face(simplex, 0)
        c1 = P.c_sigma_k(simplex, 1).at(objects[-1])
        u1 = simplex.arrows[0]
        bsub = P.sigma_upper(d0).on_obj(objects[0])
        asub = P.sigma_lower(d0).on_obj(objects[-1])
        yield ((d0, objects, btuple), sgn_simp,
               lambda vec: left_act(fib0, P.restriction(u1).on_obj(bsub), c1,
                                    restrict(P.restriction(u1), bsub, asub, vec)))
        for i in range(1, p):
            di = base.face(simplex, i)
            eps = P.epsilon_sigma_i(simplex, i).at(objects[0])
            a_obj = P.sigma_lower(di).on_obj(objects[-1])
            b_old = P.sigma_upper(di).on_obj(objects[0])
            yield ((di, objects, btuple), sgn_simp * (-1 if i % 2 else 1),
                   lambda vec, e=eps, a=a_obj, b=b_old: right_act(fib0, a, vec, b, e))
        dp = base.face(simplex, p)
        cp = P.c_sigma_k(simplex, p - 1).at(objects[-1])
        up = P.restriction(simplex.arrows[-1])
        new_objects = tuple(up.on_obj(o) for o in objects)
        b_obj = P.sigma_upper(dp).on_obj(new_objects[0])
        for coeff, nb in expand_multilinear(F, [up.apply(a) for a in args]):
            yield ((dp, new_objects, nb), sgn_simp * (-1 if p % 2 else 1),
                   lambda vec, c=coeff, b=b_obj: left_act(fib0, b, cp, _scaled(F, c, vec)))

    # higher components d_j from C^{p-j, q+j-1}, 2 <= j <= p
    for j in range(2, p + 1):
        c_pref = P.c_sigma_k(simplex, p - j).at(objects[-1])
        for in_key, coeff in higher_terms_bruteforce(C, key, j).items():
            b_obj = P.sigma_upper(in_key[0]).on_obj(in_key[1][0])
            yield (in_key, 1, lambda vec, c=coeff, b=b_obj:
                   left_act(fib0, b, c_pref, _scaled(F, c, vec)))


def left_mu(P, b, v, a_obj, vec):
    """mu(b, x) for b graded u from C to D, x a value in A~_v(A, C)."""
    fib = P.fiber(P.base.src(v))
    vb = P.restriction(v).apply(GradedCategory(P).as_fiber_mor(b))
    y = left_act(fib, a_obj, vb, vec)
    return left_act(fib, a_obj, P.twist(v, b.grading).at(b.tgt_obj), y)


def right_mu(P, v, b_obj, c_obj, vec, a):
    """mu(x, a) for x a value in A~_v(B, C), a graded w from A to B."""
    base = P.base
    w = a.grading
    fib = P.fiber(base.src(w))
    fw = P.restriction(w)
    y = restrict(fw, b_obj, P.restriction(v).on_obj(c_obj), vec)
    z = left_act(fib, fw.on_obj(b_obj), P.twist(w, v).at(c_obj), y)
    return right_act(fib, P.restriction(base.then(w, v)).on_obj(c_obj),
                     z, fw.on_obj(b_obj), GradedCategory(P).as_fiber_mor(a))


def cell_gmors(CU, key):
    """The arguments a_1..a_n of a graded cell, as graded morphisms."""
    simplex, objects, btuple = key
    return [CU.G.basis_gmor(*CU.arg_key(simplex, objects, btuple, i))
            for i in range(1, len(btuple) + 1)]


def graded_terms(CU, key, n):
    """The terms of the graded Hochschild differential at the degree-n cell."""
    P = CU.P
    F = CU.field
    base = P.base
    simplex, objects, btuple = key
    args = cell_gmors(CU, key)

    # i = 0: mu(a_1, psi(a_2..a_n))
    sub = Simplex(simplex.source, simplex.arrows[:-1])
    v0 = base.composite(sub)
    yield ((sub, objects[:-1], btuple[1:]), 1,
           lambda vec: left_mu(P, args[0], v0, objects[0], vec))

    # middle merges
    for i in range(1, n):
        merged = CU.G.mu(args[i - 1], args[i])
        lo = n - i - 1
        new_objects = objects[: lo + 1] + objects[lo + 2 :]
        new_simplex = base.face(simplex, n - i)
        for bm, coeff in enumerate(merged.coords):
            if F.is_zero(coeff):
                continue
            nb = btuple[: i - 1] + (bm,) + btuple[i + 1 :]
            yield ((new_simplex, new_objects, nb), -1 if i % 2 else 1,
                   lambda vec, c=coeff: _scaled(F, c, vec))

    # i = n: mu(psi(a_1..a_{n-1}), a_n)
    sub = Simplex(base.tgt(simplex.arrows[0]), simplex.arrows[1:])
    vn = base.composite(sub)
    yield ((sub, objects[1:], btuple[:-1]), -1 if n % 2 else 1,
           lambda vec: right_mu(P, vn, objects[1], objects[-1], vec, args[n - 1]))


# -- the comparison maps term by term ------------------------------------------------
# The Seq recursion, the graded shuffle product and the Omega recursion one
# term at a time: one Seq element, path and shuffle at a time, each string
# built token by token, and Omega_{n-1} recomputed at every cell.  ``f_terms``,
# ``g_terms`` and ``t_terms`` read them, so they check the library's shape
# skeletons, string plans, memos and per-input-cell sums.


def _underlined(P, arrows, entries, i, bottom_obj):
    """u_1* ... u_{n-i}* applied to the i-th string entry (1-based)."""
    n = len(arrows)
    fun = P.stars(arrows[: n - i], end_obj=bottom_obj)
    return fun.apply(entries[i - 1])


def _tail_composite(P, arrows, entries, start, bottom_obj):
    """The composite of underlined entries start..n (an initial segment of
    the string, source side)."""
    n = len(arrows)
    acc = None
    for i in range(n, start - 1, -1):
        m = _underlined(P, arrows, entries, i, bottom_obj)
        acc = m if acc is None else m.cat.compose(m, acc)
    return acc


def seq_elements(P, arrows, entries, objects, part):
    """All Seq elements for a string over ``arrows`` and a partition.

    ``entries`` lists the string's fiber morphisms (slot 1 over the last
    arrow), ``objects`` the graded object chain A_0..A_n.  Elements are fiber
    simplices over the chain's source with signs and token tags.
    """
    base = P.base
    n = len(arrows)
    if part.n != n:
        raise ValueError("partition does not match chain length")
    if n == 0:
        return [SeqElement((), 1, (), objects[0], objects[0])]
    bottom = base.src(arrows[0])
    blocks = part.blocks
    if len(blocks) == 1:
        out = []
        a_total = _tail_composite(P, arrows, entries, 1, bottom)
        top_obj = objects[-1]
        for r in paths_or_trivial(arrows):
            ents = []
            for chain_before, i in reversed(r.steps(base)):  # displayed order
                ents.append(P.epsilon_for(chain_before, i).at(top_obj))
            ents.append(a_total)
            out.append(SeqElement(tuple(ents), r.sign,
                                  tuple([("tw", 0)] * (n - 1)) + (("a", 0),),
                                  a_total.src, ents[0].tgt))
        return out
    mk = blocks[0]
    rest = Partition(blocks[1:])
    subs = seq_elements(P, arrows[mk:], entries[: n - mk], objects[mk:], rest)
    out = []
    if mk == 1:
        fu = P.restriction(arrows[0])
        a_n = entries[n - 1]
        for s in subs:
            ents = tuple(fu.apply(e) for e in s.entries) + (a_n,)
            tags = tuple((kind, b + 1) for kind, b in s.tags) + (("a", 0),)
            out.append(SeqElement(ents, s.sign, tags, a_n.src, ents[0].tgt))
        return out
    tail = _tail_composite(P, arrows, entries, n + 1 - mk, bottom)
    for s in subs:
        sub_objects = s.objects()
        for path in paths_or_trivial(arrows[:mk]):
            for beta in enumerate_shuffles((n - mk, mk - 1)):
                ents, _objs = eval_shuffle(P, path, list(s.entries), sub_objects,
                                           beta.word)
                ents = tuple(ents) + (tail,)
                tags = []
                it = iter(tuple((kind, b + 1) for kind, b in s.tags))
                for tok in beta.word:
                    tags.append(next(it) if tok == 0 else ("tw", 0))
                tags.append(("a", 0))
                out.append(SeqElement(ents, path.sign * beta.sign * s.sign,
                                      tuple(tags), tail.src, ents[0].tgt))
    return out


def build_graded_string(P, zeta, fiber_entries, fiber_objects, word, top_obj):
    """The shuffle product of a fiber simplex with a conditioned shuffle
    product, as a tuple of graded string entries (target-first).

    ``word`` interleaves fiber tokens (0) with zeta tokens (1); the fiber
    simplex lives over ``top_obj`` (entries target-first, objects
    source-first).
    """
    base = P.base
    levels = []
    for block, path in zeta.levels:
        chains = [block]
        cur = block
        steps = path.steps(base)
        for (c, i) in steps:
            cur = c[: i - 1] + (base.then(c[i - 1], c[i]),) + c[i + 1 :]
            chains.append(cur)
        levels.append({
            "block": block,
            "steps": steps,
            "chains": chains,
            "m": len(block),
            "consumed": 0,
            "started": False,
            "z_top": base.tgt(block[-1]),
            "z_bot": base.src(block[0]),
        })
    ztokens = zeta.tokens()
    zpos = 0
    consumed_f = 0
    cur_obj = fiber_objects[-1]
    out = []

    def level_functor(lv):
        st = levels[lv]
        return P.stars(st["chains"][st["m"] - 1 - st["consumed"]],
                       end_obj=st["z_top"])

    def apply_below(lv, obj):
        for i in range(lv):
            obj = level_functor(i).on_obj(obj)
        return obj

    def apply_range(lo, mor):
        for i in range(lo, len(levels)):
            if levels[i]["started"]:
                mor = level_functor(i).apply(mor)
        return mor

    def top_fiber_obj():
        for i in range(len(levels) - 1, -1, -1):
            if levels[i]["started"]:
                return levels[i]["z_bot"]
        return top_obj

    for tok in word:
        if tok == 0:
            x = fiber_entries[consumed_f]
            m = apply_range(0, x)
            z = top_fiber_obj()
            out.append(GMor(base.identities[z], m.src, m.tgt, m.coords))
            consumed_f += 1
            cur_obj = fiber_objects[len(fiber_objects) - 1 - consumed_f]
        else:
            ztok = ztokens[zpos]
            zpos += 1
            lv = ztok[1]
            st = levels[lv]
            if ztok[0] == "start":
                y = apply_below(lv, cur_obj)
                v = base.composite(Simplex(st["z_bot"], st["block"]))
                src = P.restriction(v).on_obj(y)
                fib = P.fiber(st["z_bot"])
                st["started"] = True
                out.append(GMor(v, src, y, fib.identity(src).coords))
            else:
                j = ztok[2]  # displayed path entry r_j of this level
                chain_before, i = st["steps"][st["m"] - j - 1]
                eps = P.epsilon_for(chain_before, i)
                x_obj = apply_below(lv, cur_obj)
                m0 = eps.at(x_obj)
                m = apply_range(lv + 1, m0)
                st["consumed"] += 1
                z = top_fiber_obj()
                out.append(GMor(base.identities[z], m.src, m.tgt, m.coords))
    return tuple(out)


def c_sigma_partition(P, arrows, part):
    """The common evaluated path on the block composites of a partition, as a
    whole natural transformation.

    Single-block partitions give the identity transform; empty partitions are
    the caller's job.
    """
    if part.k == 0:
        raise ValueError("empty partition has no block transform")
    comps = []
    for lo, hi in partition_block_slices(part):
        seg = arrows[lo:hi]
        comps.append(P.base.composite(Simplex(P.base.src(seg[0]), tuple(seg))))
    if part.k == 1:
        return identity_transform(P.restriction(comps[0]))
    # merging at index 1 at every step: one path, and every path has this value
    return eval_path(P, Path(tuple(comps), (1,) * (part.k - 1)))


def omega_terms(cmp_, simplex, entries, objects, p):
    """Signed corrected strings of omega_{n,p} for one graded component.

    Yields (sign, string, correction) with the correction morphism mapping
    the string's value module into A(U_0)(A_0, sigma^* A_n).
    """
    P = cmp_.P
    base = P.base
    n = simplex.p
    u0 = simplex.source
    arrows = simplex.arrows
    Lsimp = base.left_part(simplex, p)
    lfun = P.sigma_lower(Lsimp)
    fib0 = P.fiber(u0)
    c_k = P.c_sigma_k(simplex, p).at(objects[-1])
    tail = _tail_composite(P, arrows, entries, n + 1 - p, u0)
    tail_entry = GMor(base.identities[u0], tail.src, tail.tgt, tail.coords)
    r_arrows = arrows[p:]
    for part in partitions(n - p):
        if part.k == 0:
            pref = c_k
        else:
            cb = c_sigma_partition(P, r_arrows, part).at(objects[-1])
            pref = fib0.compose(c_k, lfun.apply(cb))
        for xi in seq_elements(P, r_arrows, entries[: n - p], objects[p:], part):
            xi_objects = xi.objects()
            for part2 in partitions(p):
                for zeta in seqq_elements(P, arrows[:p], part2):
                    for beta in enumerate_shuffles((n - p, p)):
                        body = build_graded_string(
                            P, zeta, list(xi.entries), xi_objects,
                            beta.word, base.objects_along(simplex)[p])
                        string = body + (tail_entry,)
                        sgn = part.sign * xi.sign * zeta.sign * beta.sign
                        yield sgn, string, pref

def big_omega_terms(cmp_, simplex, entries, objects):
    """Corrected strings of Omega_n, including the recursion tail."""
    P = cmp_.P
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
        return [(1, (id_entry, a_entry), corr)]
    out = []
    s = -1 if (n + 1) % 2 else 1
    for p in range(1, n + 1):
        for sgn, string, pref in omega_terms(cmp_, simplex, entries, objects, p):
            out.append((s * sgn, string, pref))
    u1 = simplex.arrows[0]
    sub_simplex = base.face(simplex, 0)
    comp_sub = base.composite(sub_simplex)
    a_n = entries[n - 1]
    # graded by u1, from A_0 to A_1: its fiber target u1* A_1 is not A_1 when
    # the restriction renames objects
    a_entry = GMor(u1, a_n.src, objects[1], a_n.coords)
    fu1 = P.restriction(u1)
    for c, y, corr_y in big_omega_terms(cmp_, sub_simplex, entries[: n - 1],
                                             objects[1:]):
        x = y + (a_entry,)
        comp_y = base.composite(string_simp(base, list(y)))
        y_tgt = y[0].tgt_obj
        back = P.twist_inverse(u1, comp_y).at(y_tgt)
        fwd = P.twist(u1, comp_sub).at(objects[-1])
        corr_x = fib0.compose(fwd, fib0.compose(fu1.apply(corr_y), back))
        out.append((c, x, corr_x))
    return out


def f_terms(cmp_, key):
    """The terms of F at a graded output cell."""
    P = cmp_.P
    F = cmp_.field
    base = P.base
    simplex, objects, _ = key
    n = simplex.p
    u0 = simplex.source
    fib0 = P.fiber(u0)
    entries = [cmp_.CU.G.as_fiber_mor(g) for g in cell_gmors(cmp_.CU, key)]
    for p in range(0, n + 1):
        Lsimp = base.left_part(simplex, p)
        tail = (_tail_composite(P, simplex.arrows, entries, n + 1 - p, u0)
                if p >= 1 else None)
        c_k = P.c_sigma_k(simplex, p).at(objects[-1])
        r_arrows = simplex.arrows[p:]
        for part in partitions(n - p):
            if part.k == 0:
                pref = c_k
            else:
                cb = c_sigma_partition(P, r_arrows, part).at(objects[-1])
                pref = fib0.compose(c_k, P.sigma_lower(Lsimp).apply(cb))
            for xi in seq_elements(P, r_arrows, entries[: n - p], objects[p:], part):
                xi_objects = tuple(xi.objects())
                b_src = P.sigma_upper(Lsimp).on_obj(xi_objects[0])
                for coeff, nb in expand_multilinear(F, xi.entries):

                    def op(vec, coeff=coeff, pref=pref, tail=tail, b_src=b_src):
                        w = left_act(fib0, b_src, pref, _scaled(F, coeff, vec))
                        if tail is not None:
                            w = right_act(fib0, pref.tgt, w, b_src, tail)
                        return w

                    yield (Lsimp, xi_objects, nb), part.sign * xi.sign, op


def g_terms(cmp_, key):
    """The terms of G at a GS output cell."""
    P = cmp_.P
    F = cmp_.field
    base = P.base
    simplex, objects, btuple = key
    p = simplex.p
    q = len(btuple)
    top = base.objects_along(simplex)[-1]
    args = [cmp_.CG.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
    for part in partitions(p):
        for zeta in seqq_elements(P, simplex.arrows, part):
            for beta in enumerate_shuffles((q, p)):
                string = build_graded_string(P, zeta, args, list(objects), beta.word, top)
                if string:
                    simp = string_simp(base, list(string))
                    objsx = tuple(string_objects(list(string)))
                else:
                    simp = Simplex(top, ())
                    objsx = (objects[0],)
                fmors = [cmp_.CU.G.as_fiber_mor(e) for e in string]
                for coeff, nb in expand_multilinear(F, fmors):
                    yield ((simp, objsx, nb), beta.sign * zeta.sign,
                           lambda vec, c=coeff: _scaled(F, c, vec))


def t_terms(cmp_, key):
    """The terms of the homotopy T at a graded output cell."""
    P = cmp_.P
    F = cmp_.field
    simplex, objects, _ = key
    n = simplex.p
    if n == 0:
        return
    u0 = simplex.source
    entries = [cmp_.CU.G.as_fiber_mor(g) for g in cell_gmors(cmp_.CU, key)]
    for sgn, string, corr in big_omega_terms(cmp_, simplex, entries, list(objects)):
        simp = string_simp(P.base, list(string))
        objsx = tuple(string_objects(list(string)))
        fmors = [cmp_.CU.G.as_fiber_mor(e) for e in string]
        for coeff, nb in expand_multilinear(F, fmors):
            yield ((simp, objsx, nb), sgn, lambda vec, c=coeff, corr=corr:
                   left_act(P.fiber(u0), objects[0], corr, _scaled(F, c, vec)))


def apply_terms(contrib, out_complex, n, in_complex, phi):
    """The operator of a block stream applied to ``phi`` through its matrix:
    a degree-n cochain of ``out_complex``."""
    mat = pull_matrix(contrib, out_complex.cells(n), out_complex.index(n),
                      in_complex.index(phi.degree), out_complex.field)
    return apply_matrix(mat, phi, out_complex, n)


# -- formal chains ------------------------------------------------------------------


class GradedChain:
    """An integer combination of tensor strings (tuples of GMor)."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for coeff, string in terms:
                self.add(coeff, string)

    def add(self, coeff, string):
        string = tuple(string)
        cur = self.terms.get(string, 0) + coeff
        if cur == 0:
            self.terms.pop(string, None)
        else:
            self.terms[string] = cur

    def add_chain(self, other, scale=1):
        for string, coeff in other.terms.items():
            self.add(scale * coeff, string)
        return self

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GradedChain):
            return NotImplemented
        return self.terms == other.terms

    def __len__(self):
        return len(self.terms)


def chain_face(P, string, i):
    """The i-th face of a string: drop an end or merge two adjacent entries."""
    n = len(string)
    if n <= 1:
        raise ValueError("faces of strings need length >= 2")
    if not (0 <= i <= n):
        raise IndexError("face index out of range")
    if i == 0:
        return string[1:]
    if i == n:
        return string[:-1]
    merged = GradedCategory(P).mu(string[i - 1], string[i])
    return string[: i - 1] + (merged,) + string[i + 1 :]


def chain_face_sum(P, chain, i):
    out = GradedChain()
    for string, coeff in chain.terms.items():
        out.add(coeff, chain_face(P, string, i))
    return out


def chain_concat(x, y):
    """Concatenation: y is the source-side piece appended after x."""
    if x and y and y[0].tgt_obj != x[-1].src_obj:
        raise ValueError("strings not concatenable")
    return tuple(x) + tuple(y)


def eval_on_string(complex_, psi, string):
    """Evaluate a cochain on one string, multilinearly over entry coordinates.

    Returns (value_vector, value_module_signature) or None when the string's
    length does not match the cochain degree or its cells carry rank zero.
    """
    F = complex_.field
    if len(string) != psi.degree:
        return None
    simp = string_simp(complex_.P.base, list(string))
    objects = tuple(string_objects(list(string)))
    gmors = [complex_.G.as_fiber_mor(e) for e in string]
    rank = complex_.value_rank((simp, objects, None))
    acc = [F.zero] * rank
    for coeff, nb in expand_multilinear(F, gmors):
        key = (simp, objects, nb)
        vec = psi.data.get(key)
        if vec is None:
            continue
        for k, v in enumerate(vec):
            acc[k] = F.add(acc[k], F.mul(coeff, v))
    comp = complex_.P.base.composite(simp)
    return acc, (comp, objects[0], objects[-1])


def eval_on_chain(complex_, psi, chain):
    """Linear extension of evaluation; strings of the wrong length give zero.

    All contributing strings must share the value module; mixing modules is a
    type error and raises.
    """
    F = complex_.field
    acc = None
    sig = None
    for string, coeff in chain.terms.items():
        res = eval_on_string(complex_, psi, string)
        if res is None:
            continue
        vec, s = res
        if acc is None:
            acc = [F.zero] * len(vec)
            sig = s
        elif s != sig:
            raise ValueError("chain mixes value modules %r and %r" % (sig, s))
        c = F.from_int(coeff)
        for k, v in enumerate(vec):
            acc[k] = F.add(acc[k], F.mul(c, v))
    return acc


def omega_chain(cmp_, simplex, entries, objects, p):
    """The plain formal sum omega_{n,p} in the free abelian group."""
    chain = GradedChain()
    for sgn, string, _pref in cmp_.omega_terms(simplex, entries, objects, p):
        chain.add(sgn, string)
    return chain


def big_omega_chain(cmp_, simplex, entries, objects):
    chain = GradedChain()
    for sgn, string, _corr in cmp_.big_omega_terms(simplex, entries, objects):
        chain.add(sgn, string)
    return chain


def delta_chain(cmp_, simplex, entries, objects):
    """Delta_n: partitioned Seq strings with identity gradings minus the
    input string."""
    P = cmp_.P
    n = simplex.p
    chain = GradedChain()
    ident = P.base.identities[simplex.source]
    for part in partitions(n):
        for xi in seq_elements(P, simplex.arrows, entries, objects, part):
            string = tuple(GMor(ident, e.src, e.tgt, e.coords) for e in xi.entries)
            chain.add(part.sign * xi.sign, string)
    orig = []
    for i, e in enumerate(entries):
        u = simplex.arrows[n - 1 - i]
        orig.append(GMor(u, objects[n - 1 - i], objects[n - i], e.coords))
    chain.add(-1, tuple(orig))
    return chain
