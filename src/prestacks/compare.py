"""Comparison maps between the GS complex and the graded Hochschild complex.

F pushes a GS cochain to the graded side via partitioned path transforms and
evaluation shuffles; G pulls back via conditioned shuffle products carrying
underlying base simplices; T is the explicit homotopy from FG to the
identity, built from formal sums of length-(n+1) strings.  Values of T carry
the canonical twist-correction morphisms that identify the value modules of
the strings with the target component; without them the homotopy identity
only holds for strictly functorial restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basecat import Simplex
from .combinatorics import (
    Partition,
    enumerate_conditioned,
    enumerate_shuffles,
    partition_block_slices,
    partitions,
    paths_or_trivial,
)
from .complexbase import pull_apply, pull_matrix
from .graded import (
    GradedChain,
    StringEntry,
    string_objects,
    string_simp,
)
from .gscomplex import eval_shuffle, expand_multilinear


# -- partitioned path transforms -------------------------------------------------


def c_sigma_partition(P, arrows, part):
    """The common evaluated path on the block composites of a partition.

    Single-block partitions give the identity transform; empty partitions are
    the caller's job.
    """
    if part.k == 0:
        raise ValueError("empty partition has no block transform")
    comps = []
    for lo, hi in partition_block_slices(part):
        seg = arrows[lo:hi]
        comps.append(P.base.composite(Simplex(P.base.src(seg[0]), tuple(seg))))
    return P.c_for_blocks(tuple(comps))


# -- Seq ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqElement:
    """A fiber simplex produced by the Seq recursion, with sign and token tags."""

    entries: tuple  # Mor list, target-first
    sign: int
    tags: tuple     # per entry: ("tw", block) or ("a", block)
    src_obj: str
    tgt_obj: str

    def objects(self):
        if not self.entries:
            return [self.src_obj]
        objs = [e.src for e in reversed(self.entries)]
        objs.append(self.entries[0].tgt)
        return objs


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
            for chain_before, i in r.entries(base):
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


# -- Seqq --------------------------------------------------------------------------


@dataclass(frozen=True)
class Zeta:
    """A conditioned shuffle product: per-level block paths plus the word."""

    arrows: tuple          # the partitioned base chain
    levels: tuple          # per level (1-based order): (block arrows, Path)
    word: tuple            # formal order: level index (0-based) per position
    sign: int

    def tokens(self):
        """The token stream: ("start", level) or ("tw", level, j)."""
        counters = [0] * len(self.levels)
        out = []
        for lv in self.word:
            j = counters[lv]
            counters[lv] += 1
            if j == 0:
                out.append(("start", lv))
            else:
                out.append(("tw", lv, j))
        return out

    def simp_gradings(self, base):
        """Grading arrow per token: block composites on run starts, identities
        at the current deepest fiber otherwise."""
        out = []
        deepest = None
        for tok in self.tokens():
            lv = tok[1]
            block, _ = self.levels[lv]
            if tok[0] == "start":
                deepest = base.src(block[0])
                out.append(base.composite(Simplex(deepest, block)))
            else:
                out.append(base.identities[deepest])
        return out

    def simp(self, base):
        return Simplex(base.src(self.arrows[0]),
                       tuple(reversed(self.simp_gradings(base))))


def seqq_elements(P, arrows, part):
    """All conditioned shuffle products for a partition of the chain."""
    base = P.base
    p = len(arrows)
    if part.n != p:
        raise ValueError("partition does not match chain length")
    if p == 0:
        return [Zeta((), (), (), 1)]
    blocks = part.blocks  # left-to-right; level l is the l-th block from the right
    k = len(blocks)
    slices = partition_block_slices(part)
    level_arrows = [tuple(arrows[lo:hi]) for lo, hi in reversed(slices)]
    level_sizes = tuple(len(a) for a in level_arrows)
    out = []
    path_choices = [paths_or_trivial(a) for a in level_arrows]

    def rec(lv, chosen):
        if lv == k:
            psign = 1
            for pth in chosen:
                psign *= pth.sign
            for gamma in enumerate_conditioned(level_sizes):
                out.append(Zeta(tuple(arrows),
                                tuple(zip(level_arrows, chosen)),
                                gamma.word, psign * gamma.sign))
            return
        for pth in path_choices[lv]:
            rec(lv + 1, chosen + [pth])

    rec(0, [])
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
            out.append(StringEntry(base.identities[z], m.src, m.tgt, m.coords))
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
                out.append(StringEntry(v, src, y, fib.identity(src).coords))
            else:
                j = ztok[2]  # displayed path entry r_j of this level
                chain_before, i = st["steps"][st["m"] - j - 1]
                eps = P.epsilon_for(chain_before, i)
                x_obj = apply_below(lv, cur_obj)
                m0 = eps.at(x_obj)
                m = apply_range(lv + 1, m0)
                st["consumed"] += 1
                z = top_fiber_obj()
                out.append(StringEntry(base.identities[z], m.src, m.tgt, m.coords))
    return tuple(out)


# -- the maps ------------------------------------------------------------------------


class Comparison:
    """F, G and T relative to a fixed GS complex and graded complex pair."""

    def __init__(self, gs, graded):
        if gs.P is not graded.P or gs.M is not graded.M:
            raise ValueError("the two complexes must share prestack and bimodule")
        self.CG = gs
        self.CU = graded
        self.P = gs.P
        self.M = gs.M
        self.field = gs.field

    # F: GS -> graded ------------------------------------------------------------

    def f_contributions(self, key):
        """Pull-style terms of F at a graded output cell."""
        P, M = self.P, self.M
        F = self.field
        base = P.base
        simplex, objects, btuple = key
        n = simplex.p
        u0 = simplex.source
        gmors = [self.CU.arg_gmor(simplex, objects, btuple, i) for i in range(1, n + 1)]
        entries = [self.CU.G.as_fiber_mor(g) for g in gmors]
        for p in range(0, n + 1):
            Lsimp = base.left_part(simplex, p)
            tail = (_tail_composite(P, simplex.arrows, entries, n + 1 - p, u0)
                    if p >= 1 else None)
            c_k = P.c_sigma_k(simplex, p).at(objects[-1])
            lfun = P.sigma_lower(Lsimp)
            r_arrows = simplex.arrows[p:]
            for part in partitions(n - p):
                if part.k == 0:
                    pref = c_k
                else:
                    cb = c_sigma_partition(P, r_arrows, part).at(objects[-1])
                    fib0 = P.fiber(u0)
                    pref = fib0.compose(c_k, lfun.apply(cb))
                for xi in seq_elements(P, r_arrows, entries[: n - p],
                                       objects[p:], part):
                    xi_objects = tuple(xi.objects())
                    sgn = part.sign * xi.sign
                    b_src = P.sigma_upper(Lsimp).on_obj(xi_objects[0])
                    for coeff, nb in expand_multilinear(F, xi.entries):
                        in_key = (Lsimp, xi_objects, nb)

                        def op(vec, coeff=coeff, pref=pref, tail=tail, b_src=b_src):
                            w = [F.mul(coeff, v) for v in vec]
                            w = M.left_act(u0, b_src, pref, w)
                            if tail is not None:
                                w = M.right_act(u0, pref.tgt, w, b_src, tail)
                            return w

                        yield in_key, sgn, op

    def apply_F(self, phi):
        return pull_apply(self.f_contributions, self.CU, phi.degree, phi)

    def matrix_F(self, n):
        return pull_matrix(self.f_contributions, self.CU.cells(n), self.CU.index(n),
                           self.CG.index(n), self.CG.value_rank, self.field)

    # G: graded -> GS -----------------------------------------------------------

    def g_contributions(self, key):
        P = self.P
        F = self.field
        base = P.base
        simplex, objects, btuple = key
        p = simplex.p
        q = len(btuple)
        top = base.objects_along(simplex)[-1]
        fib = P.fiber(top)
        args = [self.CG.arg_mor(simplex, objects, btuple, i) for i in range(1, q + 1)]
        for part in partitions(p):
            for zeta in seqq_elements(P, simplex.arrows, part):
                for beta in enumerate_shuffles((q, p)):
                    string = build_graded_string(P, zeta, args, list(objects),
                                                 beta.word, top)
                    sgn = beta.sign * zeta.sign
                    if string:
                        simp = string_simp(base, list(string))
                        objsx = tuple(string_objects(list(string)))
                    else:
                        simp = Simplex(top, ())
                        objsx = (objects[0],)
                    fmors = [self.CU.G.as_fiber_mor(e.as_gmor()) for e in string]
                    for coeff, nb in expand_multilinear(F, fmors):
                        in_key = (simp, objsx, nb)
                        yield in_key, sgn, (lambda vec, c=coeff:
                                            [F.mul(c, v) for v in vec])

    def apply_G(self, psi):
        return pull_apply(self.g_contributions, self.CG, psi.degree, psi)

    def matrix_G(self, n):
        return pull_matrix(self.g_contributions, self.CG.cells(n), self.CG.index(n),
                           self.CU.index(n), self.CU.value_rank, self.field)

    # omega / Omega / T ------------------------------------------------------------

    def omega_terms(self, simplex, entries, objects, p):
        """Signed corrected strings of omega_{n,p} for one graded component.

        Yields (sign, string, correction) with the correction morphism mapping
        the string's value module into M(A_0, sigma^* A_n).
        """
        P = self.P
        base = P.base
        n = simplex.p
        u0 = simplex.source
        arrows = simplex.arrows
        Lsimp = base.left_part(simplex, p)
        lfun = P.sigma_lower(Lsimp)
        fib0 = P.fiber(u0)
        c_k = P.c_sigma_k(simplex, p).at(objects[-1])
        tail = _tail_composite(P, arrows, entries, n + 1 - p, u0)
        tail_entry = StringEntry(base.identities[u0], tail.src, tail.tgt, tail.coords)
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

    def omega_chain(self, simplex, entries, objects, p):
        """The plain formal sum omega_{n,p} in the free abelian group."""
        chain = GradedChain()
        for sgn, string, _pref in self.omega_terms(simplex, entries, objects, p):
            chain.add(sgn, string)
        return chain

    def big_omega_terms(self, simplex, entries, objects):
        """Corrected strings of Omega_n, including the recursion tail."""
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
            id_entry = StringEntry(u1, top, objects[1], fib.identity(top).coords)
            a_entry = StringEntry(base.identities[u0], a1.src, a1.tgt, a1.coords)
            corr = fib.identity(top)
            return [(1, (id_entry, a_entry), corr)]
        out = []
        s = -1 if (n + 1) % 2 else 1
        for p in range(1, n + 1):
            for sgn, string, pref in self.omega_terms(simplex, entries, objects, p):
                out.append((s * sgn, string, pref))
        u1 = simplex.arrows[0]
        sub_simplex = base.face(simplex, 0)
        comp_sub = base.composite(sub_simplex)
        a_n = entries[n - 1]
        a_entry = StringEntry(u1, a_n.src, a_n.tgt, a_n.coords)
        fu1 = P.restriction(u1)
        for c, y, corr_y in self.big_omega_terms(sub_simplex, entries[: n - 1],
                                                 objects[1:]):
            x = y + (a_entry,)
            comp_y = base.composite(string_simp(base, list(y)))
            y_tgt = y[0].tgt_obj
            back = P.twist_inverse(u1, comp_y).at(y_tgt)
            fwd = P.twist(u1, comp_sub).at(objects[-1])
            corr_x = fib0.compose(fwd, fib0.compose(fu1.apply(corr_y), back))
            out.append((c, x, corr_x))
        return out

    def big_omega_chain(self, simplex, entries, objects):
        chain = GradedChain()
        for sgn, string, _corr in self.big_omega_terms(simplex, entries, objects):
            chain.add(sgn, string)
        return chain

    def t_contributions(self, key):
        """Pull-style terms of T at a degree-n graded output cell."""
        P, M = self.P, self.M
        F = self.field
        base = P.base
        simplex, objects, btuple = key
        n = simplex.p
        if n == 0:
            return
        u0 = simplex.source
        gmors = [self.CU.arg_gmor(simplex, objects, btuple, i) for i in range(1, n + 1)]
        entries = [self.CU.G.as_fiber_mor(g) for g in gmors]
        for sgn, string, corr in self.big_omega_terms(simplex, entries, list(objects)):
            simp = string_simp(base, list(string))
            objsx = tuple(string_objects(list(string)))
            fmors = [self.CU.G.as_fiber_mor(e.as_gmor()) for e in string]
            for coeff, nb in expand_multilinear(F, fmors):
                in_key = (simp, objsx, nb)
                yield in_key, sgn, (lambda vec, c=coeff, corr=corr:
                                    M.left_act(u0, objects[0], corr,
                                               [F.mul(c, v) for v in vec]))

    def apply_T(self, psi):
        """The homotopy T_{n+1} on a degree-(n+1) graded cochain."""
        return pull_apply(self.t_contributions, self.CU, psi.degree - 1, psi)

    def matrix_T(self, n):
        """T_n as a matrix from graded degree n to degree n-1."""
        return pull_matrix(self.t_contributions, self.CU.cells(n - 1),
                           self.CU.index(n - 1), self.CU.index(n),
                           self.CU.value_rank, self.field)

    # Delta (chain-level diagnostic) -----------------------------------------------

    def delta_chain(self, simplex, entries, objects):
        """Delta_n: partitioned Seq strings with identity gradings minus the
        input string."""
        P = self.P
        base = P.base
        n = simplex.p
        u0 = simplex.source
        chain = GradedChain()
        ident = base.identities[u0]
        for part in partitions(n):
            for xi in seq_elements(P, simplex.arrows, entries, objects, part):
                string = tuple(StringEntry(ident, e.src, e.tgt, e.coords)
                               for e in xi.entries)
                chain.add(part.sign * xi.sign, string)
        orig = []
        for i, e in enumerate(entries):
            u = simplex.arrows[n - 1 - i]
            orig.append(StringEntry(u, objects[n - 1 - i], objects[n - i], e.coords))
        chain.add(-1, tuple(orig))
        return chain

    # identities ---------------------------------------------------------------------

    def check_gf_identity(self, phi):
        """G(F(phi)) == phi for a normalized reduced cochain."""
        if not (self.CG.is_normalized(phi) and self.CG.is_reduced(phi)):
            raise ValueError("GF identity requires a normalized reduced cochain")
        return self.apply_G(self.apply_F(phi)) == phi
