"""Seq, Seqq and graded shuffle strings: the combinatorics of the comparison
maps, split into what depends only on shape and its evaluation on a string.

A Seq element is a fiber simplex built from a string of fiber morphisms by a
partition of its chain: per block a path of twists, shuffled with the Seq
elements of the rest.  ``SeqShape`` is the skeleton of a chain and partition.
``seq_vector`` sums its elements on a string over hom bases, block by block,
through ``gscomplex.path_shuffle_sum``, the sum d_j reads too;
``seq_elements`` lists them one by one.
A Seqq element (``Zeta``) is pure combinatorics on the chain's indices;
``zeta_levels`` reads what it does on an arrow chain, and ``graded_string``
builds its graded shuffle product with a fiber simplex for one word in one
pass.  ``Shapes`` keeps the shape data for one ``compare.Comparison``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .basecat import Simplex
from .combinatorics import (
    Memo,
    _check_cap,
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
from .gscomplex import path_shuffle_sum


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
    fiber entries.  The first block ``first`` has ``mk`` arrows; ``sub`` is the
    shape of the rest of the partition on the arrows after it.  An element
    pairs a sub element with a path on the first block and an
    (n - mk, mk - 1)-shuffle of the sub element's entries, each under the star
    functor of the path's current chain, with the path's whiskered twists.
    Its last entry is the composite of the block's slots, slot i underlined
    by the star functor of ``under``'s chain.
    """

    n: int
    mk: int
    bottom: str     # the chain's source
    under: tuple    # chains underlining slots n, n - 1, ..., n + 1 - mk
    first: tuple    # the first block's arrows
    sub: "SeqShape | None"


EMPTY_SEQ = SeqShape(0, 0, None, (), (), None)


def seq_shape(base, arrows, part, shapes):
    """The ``SeqShape`` of ``part`` on ``arrows``; sub shapes come from the
    memo of ``shapes``.  It refuses, in order, a sub shape, the paths on the
    first block and the shuffles over ``PRESTACKS_ENUM_CAP``, as listing them
    would."""
    n = len(arrows)
    if part.n != n:
        raise ValueError("partition does not match chain length")
    if n == 0:
        return EMPTY_SEQ
    mk = part.blocks[0]
    sub = shapes.seq[(arrows[mk:], Partition(part.blocks[1:]))]
    if mk > 1:
        _check_cap(mk)
    _check_cap(n - 1)
    return SeqShape(n, mk, base.src(arrows[0]), tuple(arrows[:i] for i in range(mk)),
                    arrows[:mk], sub)


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


def seq_vector(P, shape, entries, objects, caches, off=0):
    """The signed sum of the Seq elements of ``shape`` on a string, expanded
    over hom bases: {(element objects, basis index tuple): coefficient}
    without zeros.

    ``entries`` lists the string's fiber morphisms (slot 1 over the last
    arrow), ``objects`` the object chain A_0..A_n.  ``caches[off]`` keeps what
    was evaluated on the string from offset ``off`` of the outermost one,
    keyed by shape id.  Every element ends in the same block composite, so the
    sum is its heads' sum times the expanded composite.  The heads' sum is
    ``path_shuffle_sum`` on the first block, summed over the sub shape's
    vector; it reads the string from offset ``mk`` on only, so it is kept in
    ``caches[off + mk]``.
    """
    F = P.field
    vec = caches[off].get(("vector", id(shape)))
    if vec is not None:
        return vec
    if shape.n == 0:
        vec = {((objects[0],), ()): F.one}
    else:
        n, mk = shape.n, shape.mk
        cache = caches[off + mk]
        heads = cache.get(("heads", id(shape)))
        if heads is None:
            acc = {}
            for (sub_objs, sub_nb), c in seq_vector(P, shape.sub, entries[: n - mk],
                                                    objects[mk:], caches, off + mk).items():
                for key, v in path_shuffle_sum(P, shape.first, sub_objs, sub_nb).items():
                    v = F.mul(c, v)
                    prev = acc.get(key)
                    acc[key] = v if prev is None else F.add(prev, v)
            heads = cache[("heads", id(shape))] = [
                (k, c) for k, c in acc.items() if not F.is_zero(c)]
        tail = block_tail(P, shape.under, shape.bottom, entries, caches[off])
        vec = {}
        for b, tc in enumerate(tail.coords):
            if F.is_zero(tc):
                continue
            for (objs, nb), c in heads:
                vec[((tail.src,) + objs, nb + (b,))] = F.mul(c, tc)
    caches[off][("vector", id(shape))] = vec
    return vec


def seq_elements(P, arrows, entries, objects, part):
    """All Seq elements for a string over ``arrows`` and a partition, one per
    sub element, path on the first block and shuffle, in that order.

    ``entries`` lists the string's fiber morphisms (slot 1 over the last
    arrow), ``objects`` the graded object chain A_0..A_n.  Elements are fiber
    simplices over the chain's source with signs and token tags: ("tw", block)
    for a twist of a block's path, ("a", block) for a block's composite.
    """
    base = P.base
    arrows = tuple(arrows)
    n = len(arrows)
    if part.n != n:
        raise ValueError("partition does not match chain length")
    if n == 0:
        return [SeqElement((), 1, (), objects[0], objects[0])]
    mk = part.blocks[0]
    subs = seq_elements(P, arrows[mk:], entries[: n - mk], objects[mk:],
                        Partition(part.blocks[1:]))
    tail = block_tail(P, tuple(arrows[:i] for i in range(mk)), base.src(arrows[0]), entries, {})
    out = []
    for s in subs:
        sub_objects = s.objects()
        for path in paths_or_trivial(arrows[:mk]):
            for beta in enumerate_shuffles((n - mk, mk - 1)):
                # read target-first from the composed block: each twist
                # undoes the latest of the path's merges still in place
                chain, twists = (reduce(base.then, arrows[:mk]),), reversed(path.steps(base))
                ents, tags, fed = [], [], 0
                for tok in beta.word:
                    if tok == 0:
                        ents.append(P.stars(chain).apply(s.entries[fed]))
                        kind, b = s.tags[fed]
                        tags.append((kind, b + 1))
                        fed += 1
                    else:
                        chain, i = next(twists)
                        ents.append(P.epsilon_for(chain, i).at(sub_objects[-1 - fed]))
                        tags.append(("tw", 0))
                ents.append(tail)
                tags.append(("a", 0))
                out.append(SeqElement(tuple(ents), path.sign * beta.sign * s.sign,
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


def zeta_levels(base, zeta, arrows):
    """What the graded strings of ``zeta``, listed on the index chain, read of
    it once moved onto ``arrows``: per token of ``zeta.tokens()`` its level and
    the path step (chain, i) of a twist, None at the level's start; and per
    level the block's source and composite."""
    steps, ends = [], []
    for block, path in zeta.levels:
        moved = tuple(arrows[block[0]: block[-1] + 1])
        steps.append(Path(moved, path.recipe).steps(base))
        bottom = base.src(moved[0])
        ends.append((bottom, base.composite(Simplex(bottom, moved))))
    tokens = tuple((tok[1], None if tok[0] == "start" else steps[tok[1]][-tok[2]])
                   for tok in zeta.tokens())
    return tokens, tuple(ends)


def chain_levels(base, arrows, shapes):
    """The ``Shapes.levels`` entry of an arrow chain: (sign, ``zeta_levels``)
    of every Seqq element of every partition of its length, in partition
    order, read from the memos of ``shapes``.  The elements share most
    tokens and every level's ends, so each distinct one is stored once."""
    canon = {}
    out = []
    for part in shapes.partitions[len(arrows)]:
        for zeta in shapes.zetas[part]:
            tokens, ends = zeta_levels(base, zeta, arrows)
            out.append((zeta.sign, (tuple(canon.setdefault(t, t) for t in tokens),
                                    canon.setdefault(ends, ends))))
    return out


def graded_string(P, levels, word, fiber_entries, fiber_objects, top_obj):
    """The graded shuffle product of a Seqq element and a fiber simplex over
    ``top_obj`` (entries target-first, objects source-first) for one word,
    which takes the next fiber entry at 0 and the next token of the element
    at 1; ``levels`` is the element's ``zeta_levels``.

    The levels start in order, so the started ones are 0..s-1, each applying
    the star functor of its chain: the block composite at its start, the
    source chain of its last twist after that.  A fiber entry passes under
    all of them, a twist under those above its level, and both are graded by
    the identity at the last started level's source.  A start or a twist
    reads the next fiber object moved by the levels below it.
    """
    tokens, ends = levels
    stars = P.stars
    ident = P.base.identities
    last = len(fiber_objects) - 1
    current = []  # per started level, its chain
    z = top_obj
    zeta_tokens = iter(tokens)
    fed = 0
    out = []
    for tok in word:
        if tok == 0:
            m = fiber_entries[fed]
            fed += 1
            above = current
        else:
            lv, step = next(zeta_tokens)
            x = fiber_objects[last - fed]
            for chain in current[:lv]:
                x = stars(chain).on_obj(x)
            if step is None:
                z, v = ends[lv]
                src = P.restriction(v).on_obj(x)
                out.append(GMor(v, src, x, tuple(P.fiber(z).identity_coords[src])))
                current.append((v,))
                continue
            m = P.epsilon_for(*step).at(x)
            current[lv] = step[0]
            above = current[lv + 1:]
        for chain in above:
            m = stars(chain).apply(m)
        out.append(GMor(ident[z], m.src, m.tgt, m.coords))
    return tuple(out)


class Shapes:
    """What the comparison maps read that depends only on shape, each listed on
    first use and never written after:

    - ``partitions[n]`` and ``shuffles[blocks]``, the latter as (word, sign)
      pairs;
    - ``seq[(arrows, partition)]``: the ``SeqShape``;
    - ``zetas[partition]``: ``seqq_elements`` on the index chain 0..p-1, which
      is pure combinatorics;
    - ``levels[arrows]``: ``chain_levels``, the Seqq elements of every
      partition of the chain's length moved onto the arrow chain.
    """

    def __init__(self, P):
        self.partitions = Memo(partitions)
        self.shuffles = signed_words(enumerate_shuffles)
        self.seq = Memo(lambda key: seq_shape(P.base, *key, self))
        self.zetas = Memo(lambda part: seqq_elements(P, tuple(range(part.n)), part))
        self.levels = Memo(lambda arrows: chain_levels(P.base, arrows, self))
