"""Shuffle permutations, paths of twist isomorphisms, and partitions.

Pure combinatorics shared by the higher differentials, the comparison maps
and the homotopy.  Paths store their merge recipe (which adjacent pair of a
shrinking arrow chain was composed at each step); evaluation against a
prestack is derived data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations

from .lincat import compose_transforms

DEFAULT_BLOCK_CAP = 8


class EnumerationCapError(ValueError):
    """An enumeration larger than its cap was refused."""


def _check_cap(n, cap):
    limit = DEFAULT_BLOCK_CAP if cap is None else cap
    env = os.environ.get("PRESTACKS_ENUM_CAP")
    if env:
        limit = int(env)
    if n > limit:
        raise EnumerationCapError(
            "enumeration size %d exceeds cap %d (raise via cap= or PRESTACKS_ENUM_CAP)"
            % (n, limit)
        )


# -- shuffles -----------------------------------------------------------------


@dataclass(frozen=True)
class ShufflePerm:
    """A block-monotone permutation, stored as the word of block indices.

    ``word[l]`` is the block whose next element sits at output position l.
    ``perm`` is the permutation in one-line form: output position -> input
    position (inputs numbered block by block).
    """

    blocks: tuple
    word: tuple

    @property
    def n(self):
        return len(self.word)

    @property
    def perm(self):
        starts = [0]
        for b in self.blocks[:-1]:
            starts.append(starts[-1] + b)
        counters = list(starts)
        out = []
        for b in self.word:
            out.append(counters[b])
            counters[b] += 1
        return tuple(out)

    @property
    def sign(self):
        p = self.perm
        inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
        return -1 if inv % 2 else 1

    def is_conditioned(self):
        firsts = []
        seen = set()
        for pos, b in enumerate(self.word):
            if b not in seen:
                seen.add(b)
                firsts.append(b)
        return firsts == sorted(firsts)


def enumerate_shuffles(blocks, cap=None):
    """All (n_i)-shuffles as ShufflePerm, in lexicographic word order."""
    blocks = tuple(blocks)
    n = sum(blocks)
    _check_cap(n, cap)
    words = []

    def rec(remaining, acc):
        if len(acc) == n:
            words.append(tuple(acc))
            return
        for b in range(len(blocks)):
            if remaining[b] > 0:
                remaining[b] -= 1
                acc.append(b)
                rec(remaining, acc)
                acc.pop()
                remaining[b] += 1

    rec(list(blocks), [])
    return [ShufflePerm(blocks, w) for w in words]


def enumerate_conditioned(blocks, cap=None):
    """The conditioned shuffles: block first-elements appear in block order."""
    return [s for s in enumerate_shuffles(blocks, cap=cap) if s.is_conditioned()]


def brute_force_shuffles(blocks):
    """Oracle: filter all of S_n for the block-monotonicity property."""
    blocks = tuple(blocks)
    n = sum(blocks)
    starts = [0]
    for b in blocks[:-1]:
        starts.append(starts[-1] + b)
    members = []
    for i, b in enumerate(blocks):
        members.extend([i] * b)
    out = []
    for p in permutations(range(n)):
        # p: output position -> input position; block-monotone iff within each
        # block the input positions appear in increasing output order
        ok = True
        for i, b in enumerate(blocks):
            lo, hi = starts[i], starts[i] + b
            outs = [pos for pos in range(n) if lo <= p[pos] < hi]
            vals = [p[pos] for pos in outs]
            if vals != sorted(vals):
                ok = False
                break
        if ok:
            out.append(p)
    return out


# -- paths --------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """A path of whiskered twists on an arrow chain.

    ``arrows`` is the chain (source-first); ``recipe`` lists the merge index
    used at each step in applied order, so recipe[0] acts on the full chain.
    The path entries in displayed order are the recipe reversed.
    """

    arrows: tuple
    recipe: tuple

    @property
    def n(self):
        return len(self.arrows)

    @property
    def sign(self):
        s = 1
        for i in self.recipe:
            if i % 2 == 1:
                s = -s
        return s

    def steps(self, base):
        """List of (chain_before, merge_index) in applied order."""
        out = []
        cur = self.arrows
        for i in self.recipe:
            out.append((cur, i))
            cur = cur[: i - 1] + (base.then(cur[i - 1], cur[i]),) + cur[i + 1 :]
        return out

    def entries(self, base):
        """The path entries in displayed order (r_1 first, applied last)."""
        return list(reversed(self.steps(base)))


def enumerate_paths_raw(n, cap=None):
    """All merge recipes for a length-n chain; (n-1)! of them."""
    _check_cap(n, cap)
    if n < 1:
        raise ValueError("chain length must be >= 1")
    recipes = [()]
    for length in range(n, 1, -1):
        recipes = [r + (i,) for r in recipes for i in range(1, length)]
    return recipes


def enumerate_paths(simplex_arrows, cap=None):
    """All paths on a chain of p >= 2 arrows, with signs via Path.sign."""
    arrows = tuple(simplex_arrows)
    if len(arrows) < 2:
        raise ValueError("paths need a chain of length >= 2")
    return [Path(arrows, r) for r in enumerate_paths_raw(len(arrows), cap=cap)]


def paths_or_trivial(arrows, cap=None):
    """Paths with the 1-chain convention: a single empty path of sign +1."""
    arrows = tuple(arrows)
    if len(arrows) == 1:
        return [Path(arrows, ())]
    return enumerate_paths(arrows, cap=cap)


def eval_path(prestack, path):
    """The composite transform of a path: the same for every path on a chain."""
    steps = path.steps(prestack.base)
    if not steps:
        raise ValueError("empty path has no evaluation")
    t = None
    for chain, i in steps:
        step = prestack.epsilon_for(chain, i)
        t = step if t is None else compose_transforms(step, t)
    return t


def flip(path, k):
    """Swap the path entries r_k, r_{k+1}; a sign-reversing involution.

    ``k`` indexes displayed entries (1-based, 1 <= k <= n-2); entry r_{k+1}
    is applied before r_k, so the pair sits at recipe positions n-2-k and
    n-1-k (0-based).
    """
    n = path.n
    if not (1 <= k <= n - 2):
        raise IndexError("flip index out of range")
    s = n - 2 - k  # 0-based recipe position of the earlier applied step
    rec = list(path.recipe)
    i, j = rec[s], rec[s + 1]
    # applied step s merges at i, step s+1 merges at j of the merged chain
    if j >= i:
        rec[s], rec[s + 1] = j + 1, i
    else:
        rec[s], rec[s + 1] = j, i - 1
    return Path(path.arrows, tuple(rec))


# -- partitions -----------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """An ordered partition of n, blocks listed left to right along the chain."""

    blocks: tuple  # (m_k, m_{k-1}, ..., m_1) in left-to-right chain order

    @property
    def n(self):
        return sum(self.blocks)

    @property
    def k(self):
        return len(self.blocks)

    @property
    def sign(self):
        return -1 if (self.n - self.k) % 2 else 1


def partitions(n):
    """All ordered partitions (compositions) of n; Part(0) = {()} with sign +1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [Partition(())]
    out = []

    def rec(remaining, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        for m in range(1, remaining + 1):
            acc.append(m)
            rec(remaining - m, acc)
            acc.pop()

    rec(n, [])
    return out


def partition_block_slices(part):
    """Start/stop index pairs of each block along a chain of length part.n."""
    out = []
    pos = 0
    for m in part.blocks:
        out.append((pos, pos + m))
        pos += m
    return out
