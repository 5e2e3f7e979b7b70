"""Frame-by-frame assembly of the GS and graded differentials.

A frame is a cell's (simplex, objects) pair.  Each term stream walks the
frames of its output degree and keeps what a frame reads as locals of the
walk, so a complex holds no frame state between matrices, streams of
different degrees may be read in any order, even interleaved, and
``pull_matrix`` only sums the (row, column, block) terms it is handed.
"""

import copy
from itertools import product, zip_longest

import pytest

from conftest import get_prestack
from oracles import cell_listing, graded_terms, grouped, gs_terms, nr_keys
from prestacks import fixtures
from prestacks.compare import Comparison
from prestacks.complexbase import pull_matrix
from prestacks.graded import GradedComplex
from prestacks.gscomplex import GSComplex, NrComplex
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


def interleaved(streams):
    """Each stream's terms, the streams advanced in turn one term at a time."""
    out = [[] for _ in streams]
    for steps in zip_longest(*streams):
        for got, term in zip(out, steps):
            if term is not None:
                got.append(term)
    return out


@pytest.mark.parametrize("name", sorted(PRESTACKS))
@pytest.mark.parametrize("which", ["gs", "graded"])
def test_frame_pass_equals_oracle_in_any_order(name, which):
    # the streams of every degree, top first, advanced in turn
    P = PRESTACKS[name]()
    C, oracle, top = ((GSComplex(P), gs_terms, TOP[name][0]) if which == "gs"
                      else (GradedComplex(P), graded_terms, TOP[name][1]))
    F = C.field
    degrees = range(top, 0, -1)
    for n, terms in zip(degrees, interleaved([C.diff_contributions(n) for n in degrees])):
        got = grouped(terms, C, n, C, n - 1)
        for key in C.cells(n):
            assert summed(F, got.get(key, ())) == oracle_summed(C, oracle, key, n), (n, key)


def assert_pull_writes_no_block(terms, rows, cols, field):
    """``pull_matrix`` reads the blocks of the stream ``terms`` and writes
    none: a deep copy of each block, taken when it is first yielded, still
    equals it once the matrix is built."""
    seen = {}  # id(block) -> (block, its copy); the block is held, so its id stays its own

    def tee():
        for term in terms:
            block = term[2]
            if id(block) not in seen:
                seen[id(block)] = (block, copy.deepcopy(block))
            yield term

    pull_matrix(tee(), rows, cols, field)
    assert seen and all(block == snapshot for block, snapshot in seen.values())


# the life-of-object memos of the complexes; no frame state is kept between matrices
COMPLEX_MEMOS = {"field", "P", "G", "GM", "_cells", "_index", "_rank_cache", "_higher", "_canon",
                 "_shapes", "_blocks"}


@pytest.mark.parametrize("which", ["gs", "graded"])
def test_complex_keeps_no_frame_state(which):
    P = get_prestack("rank2-fiber")
    C, top = (GSComplex(P), 5) if which == "gs" else (GradedComplex(P), 4)
    for n in range(1, top + 1):
        C.matrix(n)
        assert set(vars(C)) <= COMPLEX_MEMOS, n
    # the life-of-complex memos are keyed by argument data, never by frame
    if which == "gs":
        assert len(C._higher) == 1240
    else:
        assert len(C._blocks) == 320
    assert_pull_writes_no_block(C.diff_contributions(top), C.dim(top), C.dim(top - 1), C.field)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), DualNumbers(QQ)], ids=str)
def test_pull_matrix_drops_the_sums_that_cancel(field):
    one, two = field.one, field.add(field.one, field.one)
    # one output row, two terms at the input cell of column 0
    terms = [(0, 0, {(0, 0): one, (0, 1): two}), (0, 0, {(0, 0): field.neg(one)})]
    m = pull_matrix(iter(terms), 1, 2, field)
    assert m.row_data == [{1: two}] and m.nnz == 1


def _all_streams(P, top):
    """(name, degree, stream) for the GS and graded differentials in degrees
    1..top, F and G in degrees 0..top and T in degrees 1..top."""
    CG, CU = GSComplex(P), GradedComplex(P)
    cmp = Comparison(CG, CU)
    for n in range(top + 1):
        if n:
            yield "gs", n, CG.diff_contributions(n)
            yield "graded", n, CU.diff_contributions(n)
            yield "T", n, cmp.t_contributions(n)
        yield "F", n, cmp.f_contributions(n)
        yield "G", n, cmp.g_contributions(n)


# scalar-twist-3chain has the twist 6/7, which has no reading over F_7
BLOCK_INPUTS = [(name, field) for name in FIXTURES for field in ("Q", "F7")
                if (name, field) != ("scalar-twist-3chain", "F7")]


@pytest.mark.parametrize("name,field", BLOCK_INPUTS)
def test_term_blocks_hold_no_zeros(name, field):
    # pull_matrix checks for zeros only in the sums where two terms meet
    P = fixtures.build(name, field=None if field == "Q" else PrimeField(7))
    F = P.field
    for which, n, stream in _all_streams(P, 3):
        for row, col, block in stream:
            assert not any(F.is_zero(v) for v in block.values()), (which, n, row, col)


LISTINGS = {
    **{name: (lambda name=name: get_prestack(name)) for name in FIXTURES},
    "chain-4": lambda: fixtures.scalar_chain_prestack(4),
    "fold": fold_prestack,
    "carry-3-5": lambda: carry_prestack(3, 5, QQ),
}


@pytest.mark.parametrize("name", sorted(LISTINGS))
@pytest.mark.parametrize("which", ["gs", "nr", "graded"])
def test_frame_index_is_the_cell_listing(which, name):
    # cells(n) is the frames' row-major expansion, each cell's column is its
    # running offset, and no frame of value rank 0 or nr identity slot is listed
    P = LISTINGS[name]()
    C = {"gs": GSComplex, "nr": NrComplex, "graded": GradedComplex}[which](P)
    for n in range(0, 5 if name == "rank2-fiber" else 6):
        frames = C.frames(n)
        want = nr_keys(GSComplex(P), n) if which == "nr" else cell_listing(C, n)
        expanded, column = [], 0
        for simplex, objects, rank, slots, offset in frames.frames:
            assert rank == C.value_rank((simplex, objects, None)) > 0
            assert offset == column
            if which == "nr":
                fib, q = P.fiber(P.base.target(simplex)), len(objects) - 1
                assert not any(fib.identity_basis_index(objects[q - i]) in slot
                               for i, slot in enumerate(slots, 1)
                               if objects[q - i] == objects[q - i + 1])
            for btuple in product(*slots):
                expanded.append((simplex, objects, btuple))
                assert frames[expanded[-1]] == column
                column += rank
        assert expanded == want == C.cells(n), (n, which)
        assert frames.dim == column == C.dim(n) == C.index(n)[1]
