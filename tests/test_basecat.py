import pytest

from oracles import all_composable_tuples_count, count_composable_pairs
from prestacks.basecat import BaseCategory, Simplex, chain_poset, cyclic_group_base


def concat(base, left, right):
    if base.objects_along(left)[-1] != right.source:
        raise ValueError("simplices not concatenable")
    return Simplex(left.source, left.arrows + right.arrows)


def right_part(base, s, k):
    """R_k: the remaining arrows from position k (R_p is the target object)."""
    return Simplex(base.objects_along(s)[k], s.arrows[k:])


def is_right_k_degenerate(base, s, k):
    """True iff u_i is an identity for some p-k+1 <= i <= p."""
    p = s.p
    if not (1 <= k <= p):
        raise IndexError("k must satisfy 1 <= k <= p")
    return any(base.is_identity(a) for a in s.arrows[p - k :])


@pytest.fixture
def two_chain():
    return chain_poset(2)


def test_validate_two_chain(two_chain):
    assert two_chain.validate() is None
    # 6 arrows: three identities, u01, u12, u02
    assert len(two_chain.arrow_ids) == 6


def test_validate_square_poset():
    # commutative square 0 < a, b < 1
    objects = ["0", "a", "b", "1"]
    arrows = {"i0": ("0", "0"), "ia": ("a", "a"), "ib": ("b", "b"), "i1": ("1", "1"),
              "x0a": ("0", "a"), "x0b": ("0", "b"), "xa1": ("a", "1"),
              "xb1": ("b", "1"), "x01": ("0", "1")}
    identities = {"0": "i0", "a": "ia", "b": "ib", "1": "i1"}
    compose = {}
    le = {("0", "0"), ("a", "a"), ("b", "b"), ("1", "1"),
          ("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"), ("0", "1")}
    name = {("0", "0"): "i0", ("a", "a"): "ia", ("b", "b"): "ib", ("1", "1"): "i1",
            ("0", "a"): "x0a", ("0", "b"): "x0b", ("a", "1"): "xa1",
            ("b", "1"): "xb1", ("0", "1"): "x01"}
    for f, (fs, ft) in arrows.items():
        for g, (gs, gt) in arrows.items():
            if ft == gs:
                compose[(f, g)] = name[(fs, gt)]
    cat = BaseCategory(objects, arrows, identities, compose)
    assert cat.validate() is None


def test_validate_catches_corrupted_associativity(two_chain):
    bad = BaseCategory(two_chain.objects, two_chain.arrows,
                       two_chain.identities, dict(two_chain.compose))
    bad.compose[("u01", "u12")] = "i0"  # wrong endpoints too
    msg = bad.validate()
    assert msg is not None and "u01" in msg


def test_nerve_degree_one_counts_arrows(two_chain):
    assert len(two_chain.nerve(1)) == len(two_chain.arrow_ids) == 6


def test_nerve_degree_zero_counts_objects(two_chain):
    assert len(two_chain.nerve(0)) == 3


def test_nerve_degree_two_matches_pair_oracle(two_chain):
    assert len(two_chain.nerve(2)) == count_composable_pairs(two_chain)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_nerve_matches_exhaustive_enumeration(two_chain, p):
    assert len(two_chain.nerve(p)) == all_composable_tuples_count(two_chain, p)


def test_faces_on_pairs(two_chain):
    s = two_chain.simplex(("u01", "u12"))
    assert two_chain.face(s, 1).arrows == ("u02",)
    assert two_chain.face(s, 0).arrows == ("u12",)
    assert two_chain.face(s, 2).arrows == ("u01",)


def test_simplicial_identities_three_chain():
    cat = chain_poset(3)
    for s in cat.nerve(3):
        for j in range(0, 4):
            for i in range(0, j):
                left = cat.face(cat.face(s, j), i)
                right = cat.face(cat.face(s, i), j - 1)
                assert left == right


def test_left_right_parts(two_chain):
    s = two_chain.simplex(("u01", "u12"))
    assert two_chain.left_part(s, 1).arrows == ("u01",)
    assert right_part(two_chain, s, 1).arrows == ("u12",)
    assert two_chain.composite(s) == "u02"
    # concat round trip over the nerve up to degree 4
    for p in range(0, 5):
        for s in two_chain.nerve(p):
            for k in range(0, p + 1):
                l, r = two_chain.left_part(s, k), right_part(two_chain, s, k)
                assert concat(two_chain, l, r) == s
                assert two_chain.then(two_chain.composite(l), two_chain.composite(r)) \
                    == two_chain.composite(s)


def test_degeneracy_predicates(two_chain):
    s = two_chain.simplex(("u01", "i1"))
    assert is_right_k_degenerate(two_chain, s, 1)
    assert two_chain.is_degenerate(s)
    t = two_chain.simplex(("u01", "u12"))
    assert not any(is_right_k_degenerate(two_chain, t, k) for k in (1, 2))
    assert not two_chain.is_degenerate(t)


def test_degeneracy_census_matches_bruteforce(two_chain):
    for s in two_chain.nerve(3):
        brute = any(two_chain.is_identity(a) for a in s.arrows)
        assert two_chain.is_degenerate(s) == brute
        for k in range(1, 4):
            brute_k = any(two_chain.is_identity(a) for a in s.arrows[3 - k:])
            assert is_right_k_degenerate(two_chain, s, k) == brute_k


def test_cyclic_base_nerve_growth():
    z2 = cyclic_group_base(2)
    assert z2.validate() is None
    for p in range(0, 5):
        expected = 2 ** p if p else 1
        assert len(z2.nerve(p)) == expected
