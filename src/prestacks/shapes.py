"""Seq, Seqq and graded shuffle strings: the combinatorics of the comparison
maps, split into what depends only on shape and its evaluation on a string.

A Seq element is a fiber simplex built from a string of fiber morphisms by a
partition of its chain: per block a path of twists, shuffled with the Seq
elements of the rest.  ``SeqShape`` lists which path, shuffle, token and sign
make up each element; ``seq_values`` evaluates a shape on a string's entries.
A Seqq element (``Zeta``) is pure combinatorics on the chain's indices, and
``string_plans`` lists what building the graded shuffle product of a Zeta
and a fiber simplex does, which ``graded_string`` then runs on the simplex.
``Shapes`` keeps all of it for one ``compare.Comparison``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .basecat import Simplex
from .combinatorics import (
    Memo,
    Partition,
    Path,
    enumerate_conditioned,
    enumerate_shuffles,
    partition_block_slices,
    partitions,
    paths_or_trivial,
    signed_words,
)
from .graded import GMor
from .gscomplex import expand_multilinear


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


class SeqShape(NamedTuple):
    """The skeleton of the Seq elements over one arrow chain and partition.

    Everything here depends on the chain and the partition only, never on the
    fiber entries.  The first block has ``mk`` arrows; ``sub`` is the shape of
    the rest of the partition on the arrows after it.  An element pairs a sub
    element with a plan: one path on the first block and one
    (n - mk, mk - 1)-shuffle.  A plan's tokens, in output order (target-first),
    are (0, chain): the star functor of ``chain`` applied to the next sub
    entry, or (1, chain, i): the whiskered twist ``epsilon_for(chain, i)`` at
    the current sub object.  The element's last entry is the composite of the
    block's slots, slot i underlined by the star functor of ``under``'s chain.
    """

    n: int
    mk: int
    bottom: str     # the chain's source
    under: tuple    # chains underlining slots n, n - 1, ..., n + 1 - mk
    plans: tuple    # per (path, shuffle): (sign, tokens)
    elements: tuple  # per element: (sub element index, plan index, sign)
    sub: "SeqShape | None"


EMPTY_SEQ = SeqShape(0, 0, None, (), (), ((0, 0, 1),), None)


def seq_shape(base, arrows, part, shapes):
    """The ``SeqShape`` of ``part`` on ``arrows``; sub shapes, paths and
    shuffles come from the memos of ``shapes``."""
    n = len(arrows)
    if part.n != n:
        raise ValueError("partition does not match chain length")
    if n == 0:
        return EMPTY_SEQ
    mk = part.blocks[0]
    sub = shapes.seq[(arrows[mk:], Partition(part.blocks[1:]))]
    plans = []
    for path in shapes.paths[arrows[:mk]]:
        steps = path.steps(base)
        chains = [path.arrows] + [c[: i - 1] + (base.then(c[i - 1], c[i]),) + c[i + 1:]
                                  for c, i in steps]
        for word, sign in shapes.shuffles[(n - mk, mk - 1)]:
            tokens = []
            merged = 0
            for tok in word:
                if tok == 0:
                    tokens.append((0, chains[mk - 1 - merged]))
                else:
                    tokens.append((1,) + steps[mk - 2 - merged])
                    merged += 1
            plans.append((path.sign * sign, tuple(tokens)))
    elements = tuple((si, pi, sub_sign * sign)
                     for si, (_, _, sub_sign) in enumerate(sub.elements)
                     for pi, (sign, _) in enumerate(plans))
    return SeqShape(n, mk, base.src(arrows[0]),
                    tuple(arrows[: n - i] for i in range(n, n - mk, -1)),
                    tuple(plans), elements, sub)


def seq_tags(shape):
    """Per element of ``shape``, the token tag of each entry: ("tw", block)
    for a twist of a block's path, ("a", block) for a block's composite."""
    if shape.n == 0:
        return [()]
    subs = [[(kind, b + 1) for kind, b in tags] for tags in seq_tags(shape.sub)]
    out = []
    for si, pi, _ in shape.elements:
        it = iter(subs[si])
        out.append(tuple(next(it) if tok[0] == 0 else ("tw", 0)
                         for tok in shape.plans[pi][1]) + (("a", 0),))
    return out


def block_tail(P, under, bottom, entries, cache):
    """The composite of the string's last len(under) slots (its source end),
    slot n, n - 1, ... underlined by the star functor of ``under``'s chains:
    the slot n + 1 - len(under) after the composite of the slots below it,
    each kept in ``cache``."""
    key = ("tail", len(under))
    acc = cache.get(key)
    if acc is None:
        m = P.stars(under[-1], end_obj=bottom).apply(entries[len(entries) - len(under)])
        acc = m if len(under) == 1 else m.cat.compose(
            m, block_tail(P, under[:-1], bottom, entries, cache))
        cache[key] = acc
    return acc


def seq_heads(P, shape, entries, objects, caches, off=0):
    """Per element of a shape with n > 0, its entries but the last (the block
    composite), aligned with ``shape.elements``.

    ``entries`` lists the string's fiber morphisms (slot 1 over the last
    arrow), ``objects`` the object chain A_0..A_n.  The heads read only the
    string from offset ``mk`` on, which the sub shape reads too: a prefix of
    the entries and a suffix of the objects.  ``caches[off]`` keeps what was
    evaluated on the string from offset ``off`` of the outermost one, keyed
    by shape id, so the heads are kept in ``caches[off + mk]``.
    """
    n, mk = shape.n, shape.mk
    cache = caches[off + mk]
    heads = cache.get(("heads", id(shape)))
    if heads is None:
        subs = seq_values(P, shape.sub, entries[: n - mk], objects[mk:], caches, off + mk)
        plans = [[(0, P.stars(tok[1])) if tok[0] == 0 else (1, P.epsilon_for(tok[1], tok[2]))
                  for tok in tokens] for _, tokens in shape.plans]
        heads = []
        for si, pi, _ in shape.elements:
            sub_entries, sub_objects = subs[si]
            ents = []
            fed = 0
            for kind, x in plans[pi]:
                if kind == 0:
                    ents.append(x.apply(sub_entries[fed]))
                    fed += 1
                else:
                    ents.append(x.at(sub_objects[-1 - fed]))
            heads.append(tuple(ents))
        cache[("heads", id(shape))] = heads
    return heads


def seq_values(P, shape, entries, objects, caches, off=0):
    """The Seq elements of ``shape`` on a string, as (entries, objects) pairs
    aligned with ``shape.elements``, kept in ``caches[off]`` (see
    ``seq_heads``)."""
    out = caches[off].get(id(shape))
    if out is None:
        if shape.n == 0:
            out = [((), (objects[0],))]
        else:
            tail = block_tail(P, shape.under, shape.bottom, entries, caches[off])
            out = []
            for head in seq_heads(P, shape, entries, objects, caches, off):
                ents = head + (tail,)
                out.append((ents, tuple(e.src for e in reversed(ents)) + (ents[0].tgt,)))
        caches[off][id(shape)] = out
    return out


def seq_vector(P, shape, entries, objects, caches, off=0):
    """The signed sum of the Seq elements of ``shape`` on a string, expanded
    over hom bases: {(element objects, basis index tuple): coefficient}
    without zeros, kept in ``caches[off]`` (see ``seq_heads``).

    Every element ends in the same block composite, so the sum is the signed
    sum of the expanded heads, kept beside the heads, times the expanded
    composite.
    """
    F = P.field
    vec = caches[off].get(("vector", id(shape)))
    if vec is not None:
        return vec
    if shape.n == 0:
        vec = {((objects[0],), ()): F.one}
    else:
        cache = caches[off + shape.mk]
        heads = cache.get(("head vector", id(shape)))
        if heads is None:
            acc = {}
            for (_, _, sign), head in zip(shape.elements,
                                          seq_heads(P, shape, entries, objects, caches, off)):
                objs = tuple(e.src for e in reversed(head)) + (head[0].tgt,) if head else ()
                for coeff, nb in expand_multilinear(F, head):
                    if sign < 0:
                        coeff = F.neg(coeff)
                    prev = acc.get((objs, nb))
                    acc[(objs, nb)] = coeff if prev is None else F.add(prev, coeff)
            heads = cache[("head vector", id(shape))] = [
                (k, c) for k, c in acc.items() if not F.is_zero(c)]
        tail = block_tail(P, shape.under, shape.bottom, entries, caches[off])
        vec = {}
        for b, tc in enumerate(tail.coords):
            if F.is_zero(tc):
                continue
            for (objs, nb), c in heads:
                vec[((tail.src,) + (objs or (tail.tgt,)), nb + (b,))] = F.mul(c, tc)
    caches[off][("vector", id(shape))] = vec
    return vec


def seq_elements(P, arrows, entries, objects, part):
    """All Seq elements for a string over ``arrows`` and a partition.

    ``entries`` lists the string's fiber morphisms (slot 1 over the last
    arrow), ``objects`` the graded object chain A_0..A_n.  Elements are fiber
    simplices over the chain's source with signs and token tags.
    """
    shape = Shapes(P).seq[(tuple(arrows), part)]
    values = seq_values(P, shape, entries, objects, [{} for _ in range(len(arrows) + 1)])
    return [SeqElement(ents, sign, tags, objs[0], objs[-1])
            for (_, _, sign), tags, (ents, objs) in zip(shape.elements, seq_tags(shape), values)]


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

    def on(self, arrows):
        """This element listed on the index chain 0..p-1, moved onto ``arrows``."""
        levels = []
        for block, path in self.levels:
            moved = tuple(arrows[block[0]: block[-1] + 1])
            levels.append((moved, Path(moved, path.recipe)))
        return Zeta(tuple(arrows), tuple(levels), self.word, self.sign)


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
    gammas = [(gamma.word, gamma.sign) for gamma in enumerate_conditioned(level_sizes)]

    def rec(lv, chosen):
        if lv == k:
            psign = 1
            for pth in chosen:
                psign *= pth.sign
            for word, sign in gammas:
                out.append(Zeta(tuple(arrows), tuple(zip(level_arrows, chosen)),
                                word, psign * sign))
            return
        for pth in path_choices[lv]:
            rec(lv + 1, chosen + [pth])

    rec(0, [])
    return out


def string_plans(base, zeta, words):
    """What building the graded string of ``zeta`` and each shuffle word does,
    as data that depends on neither the fiber simplex nor its objects.

    A word interleaves fiber tokens (0) with zeta tokens (1).  A plan has one
    op per output entry, k counting the fiber tokens before it and a functor
    given by the chain of its ``P.stars``:

    - (0, k, functors, z): the functors applied to fiber entry k, graded by
      the identity of z (None: the top object);
    - (1, k, below, v, z): a level starts: the identity of v* y, graded by the
      level's block composite v, y being fiber object k from the target end
      moved by the ``below`` functors;
    - (2, k, below, (chain, i), functors, z): the twist ``epsilon_for(chain,
      i)`` at that object, then the functors, graded by the identity of z.
    """
    levels = []  # per level: block, path steps, merged chains, source, composite
    for block, path in zeta.levels:
        steps = path.steps(base)
        chains = [block] + [c[: i - 1] + (base.then(c[i - 1], c[i]),) + c[i + 1:]
                            for c, i in steps]
        bottom = base.src(block[0])
        levels.append((block, steps, chains, bottom,
                       base.composite(Simplex(bottom, block))))
    ztokens = zeta.tokens()
    plans = []
    for word in words:
        consumed = [0] * len(levels)
        started = [False] * len(levels)

        def functor(lv):
            block, _, chains, _, _ = levels[lv]
            return chains[len(block) - 1 - consumed[lv]]

        zeta_tokens = iter(ztokens)
        fed = 0
        ops = []
        for tok in word:
            live = [lv for lv, on in enumerate(started) if on]
            top = levels[live[-1]][3] if live else None
            if tok == 0:
                ops.append((0, fed, tuple(functor(lv) for lv in live), top))
                fed += 1
                continue
            ztok = next(zeta_tokens)
            lv = ztok[1]
            block, steps, _, bottom, composite = levels[lv]
            below = tuple(functor(i) for i in range(lv))
            if ztok[0] == "start":
                started[lv] = True
                ops.append((1, fed, below, composite, bottom))
            else:
                above = tuple(functor(i) for i in live if i > lv)
                ops.append((2, fed, below, steps[len(block) - ztok[2] - 1], above, top))
                consumed[lv] += 1
        plans.append(tuple(ops))
    return plans


def graded_string(P, plan, fiber_entries, fiber_objects, top_obj):
    """The graded string of a plan of ``string_plans`` on a fiber simplex over
    ``top_obj`` (entries target-first, objects source-first)."""
    ident = P.base.identities
    last = len(fiber_objects) - 1
    out = []
    for op in plan:
        kind, k = op[0], op[1]
        if kind == 0:
            m = fiber_entries[k]
            for chain in op[2]:
                m = P.stars(chain).apply(m)
            z = op[3]
        else:
            x = fiber_objects[last - k]
            for chain in op[2]:
                x = P.stars(chain).on_obj(x)
            if kind == 1:
                v, z = op[3], op[4]
                src = P.restriction(v).on_obj(x)
                out.append(GMor(v, src, x, tuple(P.fiber(z).identity_coords[src])))
                continue
            m = P.epsilon_for(*op[3]).at(x)
            for chain in op[4]:
                m = P.stars(chain).apply(m)
            z = op[5]
        out.append(GMor(ident[top_obj if z is None else z], m.src, m.tgt, m.coords))
    return tuple(out)


class Shapes:
    """What the comparison maps read that depends only on shape, each listed on
    first use and never written after:

    - ``partitions[n]``, ``paths[arrows]`` and ``shuffles[blocks]``, the last
      as (word, sign) pairs;
    - ``seq[(arrows, partition)]``: the ``SeqShape``;
    - ``zetas[partition]``: ``seqq_elements`` on the index chain 0..p-1, which
      is pure combinatorics.
    """

    def __init__(self, P):
        self.partitions = Memo(partitions)
        self.paths = Memo(paths_or_trivial)
        self.shuffles = signed_words(enumerate_shuffles)
        self.seq = Memo(lambda key: seq_shape(P.base, *key, self))
        self.zetas = Memo(lambda part: seqq_elements(P, tuple(range(part.n)), part))

    def strings(self, base, arrows, part, q):
        """(sign, plan of ``string_plans``) per Seqq element of ``part`` moved onto
        ``arrows`` and per (q, p)-shuffle, p the length of ``arrows``."""
        words = self.shuffles[(q, len(arrows))]
        out = []
        for zeta in self.zetas[part]:
            plans = string_plans(base, zeta.on(arrows), [word for word, _ in words])
            out.extend((zeta.sign * sign, plan) for (_, sign), plan in zip(words, plans))
        return out
