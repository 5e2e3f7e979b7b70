from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_prestack
from oracles import (conditioned_split, formal_shuffle, functor_chain_shuffle, join_paths,
                     nerve_shuffle, shuffle_filter_count, split_path)
from prestacks import combinatorics as cb
from prestacks import fixtures
from prestacks.basecat import chain_poset


def six_chain():
    base = chain_poset(6)
    z = {"u01": 2, "u12": 3, "u23": 5, "u34": 7, "u45": 11, "u56": 13}
    return fixtures.scalar_chain_prestack(6, lam=fixtures.coboundary_lambdas(base, z))


# -- shuffles ---------------------------------------------------------------------


def test_s21_has_three_elements_with_expected_interleavings():
    shuffles = cb.enumerate_shuffles((2, 1))
    assert len(shuffles) == 3
    eps = ["e1", "e2"]
    a = ["a"]
    got = {tuple(formal_shuffle(b, [eps, a])) for b in shuffles}
    assert got == {("a", "e1", "e2"), ("e1", "a", "e2"), ("e1", "e2", "a")}


def test_empty_blocks_single_shuffle():
    assert len(cb.enumerate_shuffles((0, 0))) == 1


def test_s32_count_against_bruteforce():
    assert len(cb.enumerate_shuffles((3, 2))) == 10 == shuffle_filter_count((3, 2))


@pytest.mark.parametrize("m", range(0, 5))
@pytest.mark.parametrize("n", range(0, 5))
def test_binomial_counts(m, n):
    assert len(cb.enumerate_shuffles((m, n))) == comb(m + n, m)


def test_conditioned_22_count():
    assert len(cb.enumerate_conditioned((2, 2))) == 3


def test_conditioned_211_against_bruteforce():
    conditioned = cb.enumerate_conditioned((2, 1, 1))
    brute = 0
    for s in cb.enumerate_shuffles((2, 1, 1)):
        if s.is_conditioned():
            brute += 1
    assert len(conditioned) == brute


def test_identity_shuffle_concatenates():
    b = cb.enumerate_shuffles((2, 2))[0]
    assert b.word == (0, 0, 1, 1)
    assert formal_shuffle(b, [["x1", "x2"], ["y1", "y2"]]) == ["x1", "x2", "y1", "y2"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.randoms())
def test_block_positions_increasing(m, n, rng):
    shuffles = cb.enumerate_shuffles((m, n))
    b = rng.choice(shuffles)
    out = formal_shuffle(b, [[("x", i) for i in range(m)],
                                [("y", i) for i in range(n)]])
    xs = [e[1] for e in out if e[0] == "x"]
    ys = [e[1] for e in out if e[0] == "y"]
    assert xs == sorted(xs) and ys == sorted(ys)


def test_shuffle_signs_match_inversions():
    for b in cb.enumerate_shuffles((2, 2)):
        perm = b.perm
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
        assert b.sign == (-1) ** inv


def test_nerve_shuffle_evaluated_sequences():
    # the three interleavings of a 2-chain of transforms with one morphism
    objs_eps = ["T0", "T1", "T2"]
    ents_eps = ["e1", "e2"]  # e1: T1 -> T2 listed first (target-first)
    objs_a = ["A0", "A1"]
    ents_a = ["a"]
    results = []
    for b in cb.enumerate_shuffles((2, 1)):
        prod_objs, prod_ents = nerve_shuffle(b, [(objs_eps, ents_eps), (objs_a, ents_a)])
        assert len(prod_ents) == 3
        assert prod_objs[0] == ("T0", "A0") and prod_objs[-1] == ("T2", "A1")
        results.append(tuple(prod_ents))
    # identity word (e1,e2,a): a moves first at the source end of the product
    assert results[0] == (("e1", ("id", "A1")), ("e2", ("id", "A1")), (("id", "T0"), "a"))


def test_conditioned_split_roundtrip():
    seqs = [["x1", "x2"], ["y1", "y2"], ["z1"]]
    for b in cb.enumerate_conditioned((2, 2, 1)):
        gammas, runs = conditioned_split(b, seqs)
        assert sum(gammas) == 5
        flat = [e for run in runs for e in run]
        expect = formal_shuffle(b, [[(i, x) for x in s] for i, s in enumerate(seqs)])
        # reassembly recovers the formal shuffle
        assert [e[1] for e in flat] == [x for (_, x) in expect]
    # single block: one run equal to the input
    b = cb.enumerate_conditioned((3,))[0]
    gammas, runs = conditioned_split(b, [["p", "q", "r"]])
    assert gammas == [3] and [e[1] for e in runs[0]] == ["p", "q", "r"]


def test_conditioned_split_rejects_unconditioned():
    bad = [s for s in cb.enumerate_shuffles((1, 1)) if not s.is_conditioned()][0]
    with pytest.raises(ValueError):
        conditioned_split(bad, [["x"], ["y"]])


# -- paths -------------------------------------------------------------------------


def test_paths_base_case_sign():
    paths = cb.enumerate_paths(("u01", "u12"))
    assert len(paths) == 1 and paths[0].sign == -1


def test_paths_three_chain_two_paths_signs():
    paths = cb.enumerate_paths(("u01", "u12", "u23"))
    assert len(paths) == 2
    signs = sorted(p.sign for p in paths)
    assert signs == [-1, 1]
    # merge first at position 1 gives the +1 path
    by_recipe = {p.recipe: p.sign for p in paths}
    assert by_recipe[(1, 1)] == 1 and by_recipe[(2, 1)] == -1


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_path_counts_factorial(p):
    arrows = tuple("u%d%d" % (i, i + 1) for i in range(p))
    assert len(cb.enumerate_paths(arrows)) == factorial(p - 1)


def test_paths_reject_short_chains():
    with pytest.raises(ValueError):
        cb.enumerate_paths(("u01",))


def test_enumeration_cap():
    arrows = tuple("a%d" % i for i in range(9))
    with pytest.raises(ValueError):
        cb.enumerate_paths(arrows)
    assert cb.enumerate_paths(arrows, cap=9)


def test_flip_involution_sign_membership():
    paths = cb.enumerate_paths(("u01", "u12", "u23", "u34"))
    pset = set(paths)
    for r in paths:
        for k in range(1, 3):
            f = cb.flip(r, k)
            assert f in pset
            assert cb.flip(f, k) == r
            assert f.sign == -r.sign


def test_flip_pairs_partition_paths():
    paths = cb.enumerate_paths(("u01", "u12", "u23", "u34"))
    for k in (1, 2):
        seen = set()
        for r in paths:
            f = cb.flip(r, k)
            assert f != r
            seen.add(frozenset([r.recipe, f.recipe]))
        assert len(seen) == len(paths) // 2


def test_eval_path_constant_across_paths():
    P = six_chain()
    for p in (3, 4):
        arrows = tuple("u%d%d" % (i, i + 1) for i in range(p))
        vals = set()
        for r in cb.enumerate_paths(arrows):
            vals.add(cb.eval_path(P, r).at("X").coords)
        assert len(vals) == 1


def test_eval_path_scalar_product():
    P = six_chain()
    arrows = ("u01", "u12", "u23")
    val = cb.eval_path(P, cb.enumerate_paths(arrows)[0]).at("X").coords[0]
    # coboundary family: the total scalar is z(u01) z(u12) z(u23) / z(u03)
    assert val == P.field.parse("30")


def test_flip_preserves_products():
    P = six_chain()
    arrows = ("u01", "u12", "u23", "u34")
    for r in cb.enumerate_paths(arrows):
        v = cb.eval_path(P, r).at("X")
        for k in (1, 2):
            assert cb.eval_path(P, cb.flip(r, k)).at("X") == v


def test_join_split_roundtrip_and_sign():
    base = chain_poset(5)
    arrows = ("u01", "u12", "u23", "u34", "u45")
    n = len(arrows)
    for k in (2, 3):
        L, R = arrows[:k], arrows[k:]
        for r in cb.paths_or_trivial(R):
            for s in cb.paths_or_trivial(L):
                for beta in cb.enumerate_shuffles((len(R) - 1, len(L) - 1)):
                    w = join_paths(k, r, s, beta, base)
                    assert w.sign == (-1) ** (n - k) * beta.sign * r.sign * s.sign
                    kk, r2, s2, b2 = split_path(w, base)
                    assert (kk, r2, s2, b2.word) == (k, r, s, beta.word)


def test_split_rejects_straddling_merge():
    base = chain_poset(3)
    # the path whose first applied merge straddles positions 2,3 cannot be
    # split at its final cut against k from a clean (r, s) pair at every k;
    # all 4-chain paths do split, so check the error comes from a fabricated
    # recipe ending away from a full merge
    p = cb.Path(("u01", "u12", "u23"), (1, 1))
    kk, r, s, b = split_path(p, base)
    assert kk == 2
    # a 2-entry path on a 3-chain always ends in a full merge; force failure
    # with a longer chain whose last merge is interior
    base5 = chain_poset(4)
    bad = cb.Path(("u01", "u12", "u23", "u34"), (2, 1, 1))
    kk, r, s, b = split_path(bad, base5)
    assert kk in (1, 2, 3)


def test_functor_chain_shuffle_matches_example(rank2):
    P = rank2
    fib = P.fiber("*")
    e = P.restriction("g1")
    tw = P.twist("g1", "g1")
    # level 1 (inner): the 2-chain e*e* -> id via (tw); level 2 (outer): same
    chains = [
        ([tw.src_functor, tw.tgt_functor], [tw]),
        ([tw.src_functor, tw.tgt_functor], [tw]),
    ]
    for b in cb.enumerate_shuffles((1, 1)):
        out = functor_chain_shuffle(b, chains)
        assert len(out) == 2
        for t in out:
            assert t.validate() is None
        # composite transform independent of the interleaving
    composites = []
    for b in cb.enumerate_shuffles((1, 1)):
        out = functor_chain_shuffle(b, chains)
        from prestacks.lincat import compose_transforms
        comp = compose_transforms(out[0], out[1])
        composites.append({a: comp.at(a).coords for a in fib.objects})
    assert composites[0] == composites[1]


# -- partitions -----------------------------------------------------------------------


def test_part1():
    parts = cb.partitions(1)
    assert len(parts) == 1 and parts[0].blocks == (1,) and parts[0].sign == 1


def test_part3_signs():
    parts = {p.blocks: p.sign for p in cb.partitions(3)}
    assert parts == {(3,): 1, (2, 1): -1, (1, 2): -1, (1, 1, 1): 1}


def test_part6_count():
    assert len(cb.partitions(6)) == 32


def test_part0_convention():
    parts = cb.partitions(0)
    assert len(parts) == 1 and parts[0].blocks == () and parts[0].sign == 1


def test_eval_shuffle_three_interleavings():
    # shuffle a path of twist transforms through one fiber morphism: the
    # functor is applied before/after the transform components per position
    from prestacks.gscomplex import eval_shuffle
    P = get_prestack("rank2-fiber")
    fib = P.fiber("*")
    path = cb.enumerate_paths(("g1", "g1"))[0]  # single entry: the twist
    a = fib.basis_mor("X", "Y", 0)
    outs = []
    for b in cb.enumerate_shuffles((1, 1)):
        entries, objects = eval_shuffle(P, path, [a], ["X", "Y"], b.word)
        assert len(entries) == 2
        # composite of the evaluated simplex is independent of the word
        comp = fib.compose(entries[0], entries[1])
        outs.append(comp)
    assert outs[0] == outs[1]
    # word (0,1): fiber token first: the merged functor acts on a afterwards
    entries, _ = eval_shuffle(P, path, [a], ["X", "Y"], (0, 1))
    assert entries[0].src == "X" and entries[0].tgt == "Y"  # (g0)* a = a
    entries2, _ = eval_shuffle(P, path, [a], ["X", "Y"], (1, 0))
    assert entries2[1].src == "X" and entries2[1].tgt == "Y"  # e*e* a


def test_eval_shuffle_composite_independent_on_scalar_chain():
    from prestacks.gscomplex import eval_shuffle
    P = six_chain()
    fib = P.fiber("4")
    path = cb.enumerate_paths(("u12", "u23", "u34"))[0]
    a1 = fib.scale(P.field.parse(2), fib.identity("X"))
    a2 = fib.scale(P.field.parse(3), fib.identity("X"))
    vals = set()
    for b in cb.enumerate_shuffles((2, 2)):
        entries, objects = eval_shuffle(P, path, [a1, a2], ["X"] * 3, b.word)
        acc = None
        for m in reversed(entries):
            acc = m if acc is None else m.cat.compose(m, acc)
        vals.add(acc.coords)
    assert len(vals) == 1
