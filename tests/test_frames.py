"""Frame-by-frame assembly of the GS and graded differentials.

A frame is a cell's (simplex, objects) pair.  Each complex keeps the data of
its most recent frame only, and a term stream holds on to the frame it
started with.  So the terms at a cell must not depend on the order in which
cells are visited, nor on another cell's stream being advanced in between.
"""

import copy
from itertools import zip_longest

import pytest

from conftest import get_prestack
from oracles import graded_terms, gs_terms
from prestacks import fixtures
from prestacks.compare import Comparison
from prestacks.complexbase import pull_matrix
from prestacks.graded import GradedComplex
from prestacks.gscomplex import GSComplex
from prestacks.linalg import QQ, DualNumbers, PrimeField, accumulate
from test_generated import carry_prestack, fold_prestack

FIXTURES = ["triv-A2", "triv-A3", "scalar-twist-2chain", "scalar-twist-3chain",
            "rank2-fiber", "dual-pair"]
PRESTACKS = {
    "rank2-fiber": lambda: get_prestack("rank2-fiber"),
    "dual-pair": lambda: get_prestack("dual-pair"),
    "fold": fold_prestack,
    "carry-3-2": lambda: carry_prestack(3, 2, QQ),
}
# the top degree of each complex: GS, graded
TOP = {"rank2-fiber": (5, 4), "dual-pair": (4, 3), "fold": (4, 4), "carry-3-2": (4, 4)}


def summed(F, terms):
    """{in_key: block} with the blocks of each input key added up, zeros left out."""
    out = {}
    for in_key, block in terms:
        acc = out.setdefault(in_key, {})
        for rb, v in block.items():
            accumulate(F, acc, rb, v)
    return {k: acc for k, acc in out.items() if acc}


def oracle_summed(C, oracle, key, n):
    """The oracle's closures applied to the unit vectors of each input cell."""
    F = C.field

    def blocks():
        for in_key, sgn, op in oracle(C, key, n):
            rank = C.value_rank(in_key)
            block = {}
            for b in range(rank):
                unit = [F.zero] * rank
                unit[b] = F.one
                for r, v in enumerate(op(unit)):
                    if not F.is_zero(v):
                        block[(r, b)] = v if sgn == 1 else F.neg(v)
            yield in_key, block
    return summed(F, blocks())


def alternating(C, keys, n):
    """Each cell's terms, with the streams of cells i and len - 1 - i advanced
    in turn, so that consecutive steps read different frames."""
    half = (len(keys) + 1) // 2
    out = {}
    for k1, k2 in zip_longest(keys[:half], reversed(keys[half:])):
        pairs = [(k, C.diff_contributions(k, n)) for k in (k1, k2) if k is not None]
        got = {k: [] for k, _ in pairs}
        for steps in zip_longest(*(stream for _, stream in pairs)):
            for (k, _), term in zip(pairs, steps):
                if term is not None:
                    got[k].append(term)
        out.update(got)
    return out


@pytest.mark.parametrize("name", sorted(PRESTACKS))
@pytest.mark.parametrize("which", ["gs", "graded"])
def test_frame_pass_equals_oracle_in_any_order(name, which):
    P = PRESTACKS[name]()
    C, oracle, top = ((GSComplex(P), gs_terms, TOP[name][0]) if which == "gs"
                      else (GradedComplex(P), graded_terms, TOP[name][1]))
    F = C.field
    for n in range(1, top + 1):
        keys = C.cells(n)
        want = {key: oracle_summed(C, oracle, key, n) for key in keys}
        for key in reversed(keys):
            assert summed(F, C.diff_contributions(key, n)) == want[key], (n, key)
        for key, terms in alternating(C, keys, n).items():
            assert summed(F, terms) == want[key], (n, key)


def dicts_in(frame):
    """The frame's memos and blocks: its dicts, also inside its lists and tuples."""
    out = []
    for value in vars(frame).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            parts = item if isinstance(item, tuple) else [item]
            out.extend(part for part in parts if isinstance(part, dict))
    return out


def assert_pull_writes_no_frame_block(C, n):
    """A pass of pull_matrix over the cells of C's current frame reads every
    block the frame shares and writes none."""
    (simplex, objects, _), frame = C._slot
    keys = [key for key in C.cells(n) if key[:2] == (simplex, objects)]
    snapshot = copy.deepcopy(dicts_in(frame))
    pull_matrix(lambda key: C.diff_contributions(key, n), keys, C._offsets(keys),
                C.index(n - 1), C.field)
    assert C._slot[1] is frame and dicts_in(frame) == snapshot


@pytest.mark.parametrize("which", ["gs", "graded"])
def test_complex_holds_one_frame(which):
    P = get_prestack("rank2-fiber")
    C, top = (GSComplex(P), 5) if which == "gs" else (GradedComplex(P), 4)
    for n in range(1, top + 1):
        C.matrix(n)
    # the life-of-complex memos are keyed by argument data, never by frame
    if which == "gs":
        assert len(C._higher) == 1240
    else:
        assert len(C._blocks) == 320
    assert set(vars(C)) <= {"field", "P", "G", "GM", "_cells", "_index", "_rank_cache",
                            "_slot", "_higher", "_canon", "_shapes", "_blocks"}
    last = C.cells(top)[-1]
    frame_key, frame = C._slot
    assert frame_key == (last[0], last[1], top)
    cells = sum(1 for key in C.cells(top) if key[:2] == last[:2])
    assert all(len(memo) <= cells for memo in vars(frame).values() if isinstance(memo, dict))
    assert_pull_writes_no_frame_block(C, top)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), DualNumbers(QQ)], ids=str)
def test_pull_matrix_drops_the_sums_that_cancel(field):
    one, two = field.one, field.add(field.one, field.one)
    terms = {"out": [("in", {(0, 0): one, (0, 1): two}), ("in", {(0, 0): field.neg(one)})]}
    m = pull_matrix(terms.__getitem__, ["out"], ({"out": 0}, 1), ({"in": 0}, 2), field)
    assert m.row_data == [{1: two}] and m.nnz == 1


def _all_streams(P, top):
    """(name, degree, key, stream) for every cell of the GS and graded
    differentials in degrees 1..top, F and G in degrees 0..top and T in
    degrees 1..top, over the cells each operator assembles rows for."""
    CG, CU = GSComplex(P), GradedComplex(P)
    cmp = Comparison(CG, CU)
    for n in range(top + 1):
        if n:
            for key in CG.cells(n):
                yield "gs", n, key, CG.diff_contributions(key, n)
            for key in CU.cells(n):
                yield "graded", n, key, CU.diff_contributions(key, n)
            for key in CU.cells(n - 1):
                yield "T", n, key, cmp.t_contributions(key)
        for key in CU.cells(n):
            yield "F", n, key, cmp.f_contributions(key)
        for key in CG.cells(n):
            yield "G", n, key, cmp.g_contributions(key)


# scalar-twist-3chain has the twist 6/7, which has no reading over F_7
BLOCK_INPUTS = [(name, field) for name in FIXTURES for field in ("Q", "F7")
                if (name, field) != ("scalar-twist-3chain", "F7")]


@pytest.mark.parametrize("name,field", BLOCK_INPUTS)
def test_term_blocks_hold_no_zeros(name, field):
    # pull_matrix checks for zeros only in the sums where two terms meet
    P = fixtures.build(name, field=None if field == "Q" else PrimeField(7))
    F = P.field
    for which, n, key, stream in _all_streams(P, 3):
        for in_key, block in stream:
            assert not any(F.is_zero(v) for v in block.values()), (which, n, key, in_key)
