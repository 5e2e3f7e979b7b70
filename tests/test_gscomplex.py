import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_nr, get_pair, get_prestack
from oracles import (apply_terms, classical_hochschild, grouped, higher_terms,
                     higher_terms_bruteforce, nr_keys, pointwise_diff, pull_keyed)
from prestacks.basecat import BaseCategory, Simplex, chain_poset
from prestacks.combinatorics import EnumerationCapError, enumerate_paths, enumerate_shuffles
from prestacks.complexbase import SparseCochain
from prestacks.fixtures import BUILDERS, coboundary_lambdas, scalar_chain_prestack
from prestacks.gscomplex import MOVES, GSComplex, NrBasisError, NrComplex
from prestacks.lincat import LinearCategory, scale_block
from prestacks.linalg import QQ
from test_generated import carry_prestack, fold_prestack


def test_zero_cochain_maps_to_zero(twist2):
    C, _ = get_pair("scalar-twist-2chain")
    phi = SparseCochain(C, 1)
    assert C.apply_diff(phi).is_zero()


def test_hochschild_against_direct_summation_oracle(dual_pair):
    # p = 0 over the dual-pair fixture restricted to End(X) = k[x]/(x^2)
    C, _ = get_pair("dual-pair")
    P = get_prestack("dual-pair")
    fib = P.fiber("*")

    def algebra_mul(i, j):
        out = {}
        for k, c in fib.compose_basis("X", "X", "X", i, j).items():
            out[k] = Fraction(c)
        return out

    rng = random.Random(9)
    for q in (1, 2, 3):
        # a random direction at p=0 restricted to all-X keys
        phi = SparseCochain(C, q)
        oracle_phi = {}
        for key in C.cells(q):
            simplex, objects, btuple = key
            if simplex.p != 0 or set(objects) != {"X"}:
                continue
            vec = [C.field.from_int(rng.randint(-2, 2)) for _ in range(C.value_rank(key))]
            phi.data[key] = vec
            oracle_phi[btuple] = {i: Fraction(v) for i, v in enumerate(vec) if v}
        img = C.apply_diff(phi)
        for key in C.cells(q + 1):
            simplex, objects, btuple = key
            if simplex.p != 0 or set(objects) != {"X"}:
                continue
            want = classical_hochschild(algebra_mul, ["one", "x"], 0,
                                        oracle_phi, btuple)
            got = img.data.get(key, [C.field.zero] * 2)
            got_d = {i: Fraction(v) for i, v in enumerate(got) if v}
            assert got_d == want, (key, got_d, want)


@pytest.mark.parametrize("name", ["triv-A2", "scalar-twist-2chain",
                                  "scalar-twist-3chain", "dual-pair"])
def test_d_squared_zero_matrices(name):
    C, _ = get_pair(name)
    for n in range(1, 5):
        assert C.matrix(n + 1).mul(C.matrix(n)).is_zero()


def test_d_squared_zero_pointwise_random(twist3):
    C, _ = get_pair("scalar-twist-3chain")
    for n in range(1, 4):
        for seed in range(5):
            phi = C.random_cochain(n - 1, seed)
            assert pointwise_diff(C, pointwise_diff(C, phi)).is_zero()


def test_matrix_route_equals_pointwise(rank2):
    C, _ = get_pair("rank2-fiber")
    for n in (1, 2, 3):
        phi = C.random_cochain(n - 1, 100 + n)
        assert C.matrix(n).matvec(C.to_vector(phi)) == C.to_vector(pointwise_diff(C, phi))


def test_random_cochain_reproducible(twist2):
    C, _ = get_pair("scalar-twist-2chain")
    a = C.random_cochain(2, 42)
    b = C.random_cochain(2, 42)
    assert a == b
    c = C.random_cochain(2, 43)
    assert a != c


def test_presheaf_higher_components_vanish_on_nr(triv_a3):
    # with identity twists, d on nr cochains is d_Hoch +- d_simp: the higher
    # components kill normalized arguments
    C, _ = get_pair("triv-A3")
    F = C.field
    rng = random.Random(3)
    for n in (1, 2, 3):
        phi = SparseCochain(C, n)
        for k in get_nr("triv-A3").cells(n):
            phi.data[k] = [F.from_int(rng.randint(-2, 2))
                           for _ in range(C.value_rank(k))]
        full = C.apply_diff(phi)
        partial = SparseCochain(C, n + 1)
        terms = grouped(C.diff_contributions(n + 1), C, n + 1, C, n)
        for key in C.cells(n + 1):
            acc = [F.zero] * C.value_rank(key)
            for in_key, block in terms.get(key, ()):
                # keep only Hochschild and simplicial inputs: they come from
                # cochains one bidegree away
                dp = key[0].p - in_key[0].p
                if dp not in (0, 1):
                    continue
                vec = phi.data.get(in_key)
                if vec is None:
                    continue
                for (r, b), v in block.items():
                    acc[r] = F.add(acc[r], F.mul(v, vec[b]))
            if any(not F.is_zero(v) for v in acc):
                partial.data[key] = acc
        assert full == partial


def test_structure_cochain_is_normalized_reduced(twist2):
    # the prestack structure (m, f, c) sits in degree 2 and is an nr cochain
    P = get_prestack("scalar-twist-2chain")
    C, _ = get_pair("scalar-twist-2chain")
    F = C.field
    phi = SparseCochain(C, 2)
    base = P.base
    # m-part: composition structure constants on non-identity slots
    for key in C.cells(2):
        simplex, objects, btuple = key
        if simplex.p == 0:
            fib = P.fiber(simplex.source)
            g = fib.basis_mor(objects[1], objects[2], btuple[0])
            f = fib.basis_mor(objects[0], objects[1], btuple[1])
            phi.data[key] = list(fib.compose(g, f).coords)
        elif simplex.p == 1:
            fun = P.restriction(simplex.arrows[0])
            fib = P.fiber(base.objects_along(simplex)[-1])
            phi.data[key] = list(fun.apply(
                fib.basis_mor(objects[0], objects[1], btuple[0])).coords)
        else:
            phi.data[key] = list(P.c_sigma_k(simplex, 1).at(objects[0]).coords)
    # the raw structure cochain is not normalized (units) nor reduced; its
    # nr truncation is exactly the unit and degeneracy censorship
    trunc = SparseCochain(C, 2)
    nr = set(get_nr("scalar-twist-2chain").cells(2))
    for k, v in phi.data.items():
        if k in nr:
            trunc.data[k] = v
    assert C.normalized_witness(trunc) is None and C.reduced_witness(trunc) is None


def test_nr_census_matches_direct_count(triv_a2):
    C, _ = get_pair("triv-A2")
    P = get_prestack("triv-A2")
    base = P.base
    for n in (1, 2):
        direct = 0
        for key in C.cells(n):
            simplex, objects, btuple = key
            if base.is_degenerate(simplex):
                continue
            # fiber k: every argument is the identity basis vector
            if len(btuple) > 0:
                continue
            direct += 1
        assert len(get_nr("triv-A2").cells(n)) == direct


def nr_closure_defect(C, phi):
    """Keys outside nr where d(phi) is nonzero, for nr-supported phi."""
    img = C.apply_diff(phi)
    nr = set(NrComplex(C.P).cells(phi.degree + 1))
    F = C.field
    return [k for k, vec in img.data.items()
            if k not in nr and any(not F.is_zero(v) for v in vec)]


NR_INPUTS = {
    **{name: (lambda name=name: get_prestack(name), 4 if name == "rank2-fiber" else 5)
       for name in BUILDERS},
    "chain-4": (lambda: scalar_chain_prestack(4), 5),
    "fold": (fold_prestack, 5),
    "carry-3-5-Q": (lambda: carry_prestack(3, 5, QQ), 5),
}


@pytest.mark.parametrize("name", sorted(NR_INPUTS))
def test_nr_cells_are_the_filtered_gs_cells_in_order(name):
    build, top = NR_INPUTS[name]
    P = build()
    C, NR = GSComplex(P), NrComplex(P)
    for n in range(0, top + 1):
        assert NR.cells(n) == nr_keys(C, n), n


def test_nr_cells_read_each_simplex_not_each_cell(monkeypatch):
    # degeneracy is decided once per simplex of the nerve, not per GS cell
    P = get_prestack("rank2-fiber")
    calls = []
    original = BaseCategory.is_degenerate
    monkeypatch.setattr(BaseCategory, "is_degenerate",
                        lambda self, s: calls.append(s) or original(self, s))
    n = 4
    assert NrComplex(P).cells(n)
    assert len(calls) == sum(len(P.base.nerve(p)) for p in range(n + 1))


def test_nr_complex_names_the_first_non_basis_identity_before_listing(monkeypatch):
    P = fold_prestack()  # fiber 0 holds Z, fiber 1 holds X and Y
    original = LinearCategory.identity_basis_index
    monkeypatch.setattr(LinearCategory, "identity_basis_index",
                        lambda self, a: None if a in ("X", "Y") else original(self, a))
    with pytest.raises(NrBasisError) as want:
        nr_keys(GSComplex(P), 0)
    monkeypatch.setattr(GSComplex, "cells", lambda self, n: pytest.fail("cells listed"))
    with pytest.raises(NrBasisError) as got:
        NrComplex(P).cells(2)
    assert str(got.value) == str(want.value) == (
        "fiber 1: identity of X is not a basis vector; nr basis enumeration unavailable")


@pytest.mark.parametrize("name", ["dual-pair", "rank2-fiber", "scalar-twist-3chain"])
def test_gs_differential_reads_an_nr_cochain_in_gs_coordinates(name):
    C, _ = get_pair(name)
    NR = get_nr(name)
    F = C.field
    rng = random.Random(8)
    for n in (1, 2):
        phi = NR.from_vector(n, [F.from_int(rng.randint(-2, 2)) for _ in range(NR.dim(n))])
        image = C.apply_diff(phi)
        assert image == C.apply_diff(SparseCochain(C, n, phi.data))
        assert image == NR.apply_diff(phi)


def test_nr_closure_and_squared(rank2):
    C, _ = get_pair("rank2-fiber")
    NR = get_nr("rank2-fiber")
    rng = random.Random(4)
    F = C.field
    for n in (1, 2):
        phi = SparseCochain(C, n)
        for k in NR.cells(n):
            phi.data[k] = [F.from_int(rng.randint(-2, 2))
                           for _ in range(C.value_rank(k))]
        assert nr_closure_defect(C, phi) == []
        assert NR.matrix(n + 1).mul(NR.matrix(n)).is_zero()


def test_is_normalized_detects_unit_support(dual_pair):
    C, _ = get_pair("dual-pair")
    F = C.field
    phi = SparseCochain(C, 1)
    key = (Simplex("*", ()), ("X", "X"), (0,))  # argument slot holds the identity
    phi.data[key] = [F.one, F.zero]
    assert C.normalized_witness(phi) == key
    phi2 = SparseCochain(C, 1)
    key2 = (Simplex("*", ()), ("X", "X"), (1,))
    phi2.data[key2] = [F.one, F.zero]
    assert C.normalized_witness(phi2) is None


def test_reduced_detects_degenerate_support(twist2):
    C, _ = get_pair("scalar-twist-2chain")
    P = get_prestack("scalar-twist-2chain")
    F = C.field
    s = P.base.simplex(("u01", "i1"))
    phi = SparseCochain(C, 2)
    phi.data[(s, ("X",), ())] = [F.one]
    assert C.reduced_witness(phi) == (s, ("X",), ())


def test_cochain_text_round_trip(twist3):
    from prestacks.io import cochain_from_text, cochain_to_text
    C, _ = get_pair("scalar-twist-3chain")
    phi = C.random_cochain(2, 7)
    text = cochain_to_text(C, phi)
    back = cochain_from_text(C, 2, text)
    assert back == phi


def _component(C, phi, j):
    """The terms of d that raise the simplicial degree by exactly j."""
    n = phi.degree + 1
    terms = grouped(C.diff_contributions(n), C, n, C, phi.degree)

    def contrib(key):
        p = key[0].p
        return (t for t in terms.get(key, ()) if p - t[0][0].p == j)

    return apply_terms(contrib, C, n, C, phi)


def d_hoch(C, phi):
    """The Hochschild component, raising the fiber degree."""
    return _component(C, phi, 0)


def d_simp(C, phi):
    """The simplicial component, without the total differential's sign."""
    out = _component(C, phi, 1)
    return SparseCochain(C, out.degree).sub(out) if out.degree % 2 else out


def d_higher(C, phi, j):
    """The component raising the simplicial degree by j >= 2."""
    if j < 2:
        raise ValueError("higher components start at j = 2")
    return _component(C, phi, j)


def test_total_differential_decomposes_into_components(twist3):
    C, _ = get_pair("scalar-twist-3chain")
    F = C.field
    for n0 in (1, 2, 3):
        phi = C.random_cochain(n0, seed=5)
        n = n0 + 1
        total = C.apply_diff(phi)
        acc = SparseCochain(C, n, dict(d_hoch(C, phi).data))
        sgn = F.neg(F.one) if n % 2 else F.one
        for k, vec in d_simp(C, phi).data.items():
            acc.add_to(k, [F.mul(sgn, v) for v in vec])
        for j in range(2, n + 1):
            for k, vec in d_higher(C, phi, j).data.items():
                acc.add_to(k, vec)
        assert acc == total


def test_d_simp_boundary_degree(twist2):
    # p = 0 input: d_simp is the two-term restriction difference
    C, _ = get_pair("scalar-twist-2chain")
    P = get_prestack("scalar-twist-2chain")
    F = C.field
    phi = SparseCochain(C, 1)
    phi.data[(Simplex("1", ()), ("X", "X"), (0,))] = [F.parse(3)]
    img = d_simp(C, phi)
    key = (Simplex("0", ("u01",)), ("X", "X"), (0,))
    # d0 - d1: restriction of the value (3) minus phi at the lower fiber (0)
    assert img.data[key] == [F.parse(3)]
    phi2 = SparseCochain(C, 1)
    phi2.data[(Simplex("1", ()), ("X", "X"), (0,))] = [F.parse(3)]
    phi2.data[(Simplex("0", ()), ("X", "X"), (0,))] = [F.parse(1)]
    img2 = d_simp(C, phi2)
    assert img2.data[key] == [F.parse(2)]  # 3 - 1


def _oracle_stream(C, n, cache):
    """d's term stream with every higher component from the term-by-term oracle."""
    P, F = C.P, C.field
    terms = grouped(C.diff_contributions(n), C, n, C, n - 1)

    def contrib(key):
        simplex, objects, _ = key
        p = simplex.p
        for term in terms.get(key, ()):
            if p - term[0][0].p < 2:
                yield term
        for j in range(2, p + 1):
            cp = P.c_sigma_k(simplex, p - j).at(objects[-1])
            for in_key, c in cache[(key, j)].items():
                b = P.sigma_upper(in_key[0]).on_obj(in_key[1][0])
                yield in_key, scale_block(F, c, P.fiber(simplex.source).left_block(b, cp))

    return contrib


def _check_higher_terms(C, n):
    """Compare d_j at every degree-n cell with the oracle; one term per input cell."""
    cache = {}
    terms = grouped(C.diff_contributions(n), C, n, C, n - 1)
    for key in C.cells(n):
        p = key[0].p
        merged = [t[0] for t in terms.get(key, ()) if p - t[0][0].p >= 2]
        assert len(merged) == len(set(merged)), key
        want_keys = set()
        for j in range(2, p + 1):
            want = cache[(key, j)] = higher_terms_bruteforce(C, key, j)
            assert higher_terms(C, key, j) == want, (key, j)
            want_keys |= set(want)
        assert set(merged) == want_keys, key
    return cache


@pytest.mark.parametrize("name", ["scalar-twist-3chain", "rank2-fiber", "dual-pair"])
def test_higher_terms_equal_path_by_path_sum(name):
    C, _ = get_pair(name)
    for n in range(1, 5):
        cache = _check_higher_terms(C, n)
        contrib = _oracle_stream(C, n, cache)
        full = pull_keyed(contrib, C, n, C, n - 1)
        assert full == C.matrix(n)
        NR = get_nr(name)
        nr = pull_keyed(contrib, NR, n, NR, n - 1)
        assert nr == get_nr(name).matrix(n)


weights = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@settings(max_examples=25, deadline=None)
@given(length=st.integers(1, 4), n=st.integers(2, 4), data=st.data())
def test_higher_terms_on_generated_scalar_chains(length, n, data):
    base = chain_poset(length)
    z = {a: data.draw(weights) for a in base.arrow_ids if not base.is_identity(a)}
    P = scalar_chain_prestack(length, lam=coboundary_lambdas(base, z))
    assert P.validate() is None
    C = GSComplex(P)
    _check_higher_terms(C, n)
    # With identity restrictions, coherence gives every path of a word the
    # same scalar, and the path signs over S_(j-1) sum to zero for j >= 3:
    # each of these sums is exactly empty, with no zero left in it.
    for key in C.cells(n):
        for j in range(3, key[0].p + 1):
            assert higher_terms(C, key, j) == {}, (key, j)


def test_path_cap_refuses_before_the_shuffle_cap(monkeypatch):
    # at q = 0 the (0, 2)-shuffles fit a cap of 2; the 3-arrow right part does not
    monkeypatch.setenv("PRESTACKS_ENUM_CAP", "2")
    C = GSComplex(get_prestack("scalar-twist-3chain"))
    with pytest.raises(EnumerationCapError, match=r"^enumeration size 3 exceeds cap 2 "):
        C.matrix(3)


def test_each_shuffle_shape_is_enumerated_once_per_complex(monkeypatch):
    from prestacks import gscomplex
    P = get_prestack("scalar-twist-3chain")
    expected = {n: GSComplex(P).matrix(n) for n in (2, 3, 4)}
    shapes = []

    def counted(blocks):
        shapes.append(tuple(blocks))
        return enumerate_shuffles(blocks)

    monkeypatch.setattr(gscomplex, "enumerate_shuffles", counted)
    C = GSComplex(P)
    for n in (2, 3, 4):
        assert C.matrix(n) == expected[n]
    assert shapes and len(shapes) == len(set(shapes))


def test_gs_assembly_reads_no_shuffle_words(monkeypatch):
    # the shuffle shapes are still listed for the cap's refusal; the sum over
    # them reads none of the words, so listing none changes no matrix
    from prestacks import combinatorics, gscomplex
    P = get_prestack("scalar-twist-3chain")
    expected = {n: GSComplex(P).matrix(n) for n in (2, 3, 4)}
    monkeypatch.setattr(gscomplex, "enumerate_shuffles", lambda blocks: [])
    monkeypatch.setattr(combinatorics, "enumerate_shuffles", lambda blocks: [])
    C = GSComplex(P)
    for n in (2, 3, 4):
        assert C.matrix(n) == expected[n]


def test_higher_terms_memo_attaches_each_left_part():
    C = GSComplex(get_prestack("rank2-fiber"))
    by_input = {}
    for n in (3, 4):
        for key in C.cells(n):
            simplex, objects, btuple = key
            if simplex.p >= 2:
                by_input.setdefault((simplex.arrows[-2:], objects, btuple), []).append(key)
    pairs = ((keys[0], keys[-1]) for keys in by_input.values()
             if keys[0][0].arrows[:-2] != keys[-1][0].arrows[:-2])
    first, second = next(pair for pair in pairs if higher_terms_bruteforce(C, pair[0], 2))
    want = [higher_terms_bruteforce(C, key, 2) for key in (first, second)]
    assert set(want[0]).isdisjoint(want[1])
    got = higher_terms(C, first, 2)
    assert got == want[0]
    size = len(C._higher)
    assert higher_terms(C, second, 2) == want[1]
    assert len(C._higher) == size  # the second cell reused the first one's sum
    got.clear()
    assert higher_terms(C, first, 2) == want[0]


@pytest.mark.parametrize("c", [2, -5])
def test_higher_terms_over_a_cyclic_base(c):
    # coarsenings of a chain in Z/3 compose to identities, which no chain poset gives
    from test_generated import carry_prestack
    C = GSComplex(carry_prestack(3, c, QQ))
    for n in range(2, 5):
        _check_higher_terms(C, n)


@pytest.mark.parametrize("j", range(2, 7))
def test_move_table_walks_are_the_signed_paths(j):
    # A walk from no cuts to all cuts un-merges one interval per step, so read
    # backwards it is a path's recipe: its merge indices from the full chain.
    table = MOVES[j]
    full = len(table) - 1

    def walks(cuts):
        """(recipe, product of step signs) of every walk from ``cuts`` on."""
        if cuts == full:
            yield (), 1
            return
        for pred, i, sgn in table[cuts][1]:
            for recipe, rest in walks(pred):
                yield recipe + (i,), sgn * rest

    got = list(walks(0))
    assert len(got) == len(dict(got)) == factorial(j - 1)
    paths = enumerate_paths(tuple("a%d" % k for k in range(j)))
    assert dict(got) == {path.recipe: path.sign for path in paths}
    # the segments a coarsening composes: one for no cuts, one per arrow for all
    assert table[0][0] == ((0, j),)
    assert table[full][0] == tuple((k, k + 1) for k in range(j))
