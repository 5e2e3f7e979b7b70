"""Frame-by-frame assembly of the GS and graded differentials.

A frame is a cell's (simplex, objects) pair.  Each complex keeps the data of
its most recent frame only, and a term stream holds on to the frame it
started with.  So the terms at a cell must not depend on the order in which
cells are visited, nor on another cell's stream being advanced in between.
"""

import copy
from itertools import product, zip_longest

import pytest

from conftest import get_prestack
from oracles import cell_columns, cell_listing, graded_terms, gs_terms, keyed, nr_keys
from prestacks import fixtures
from prestacks.basecat import Simplex
from prestacks.compare import Comparison
from prestacks.complexbase import FrameIndex, pull_matrix
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


def alternating(C, keys, n):
    """Each cell's terms, keyed, with the streams of cells i and len - 1 - i
    advanced in turn, so that consecutive steps read different frames."""
    half = (len(keys) + 1) // 2
    cols = cell_columns(C, n - 1)
    out = {}
    for k1, k2 in zip_longest(keys[:half], reversed(keys[half:])):
        pairs = [(k, keyed(C.diff_contributions(k, n), cols)) for k in (k1, k2) if k is not None]
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
        cols = cell_columns(C, n - 1)
        for key in reversed(keys):
            assert summed(F, keyed(C.diff_contributions(key, n), cols)) == want[key], (n, key)
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
    listed = C.frames(n).at[simplex.source, simplex.arrows, objects]
    cells = sum(1 for key in C.cells(n) if key[:2] == (simplex, objects))
    alone = FrameIndex([listed[:4] + (0,)], listed[2] * cells)
    snapshot = copy.deepcopy(dicts_in(frame))
    pull_matrix(lambda key: C.diff_contributions(key, n), alone, C.dim(n - 1), C.field)
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
    # one output cell with a value of rank 1, two terms at the input cell of column 0
    out = FrameIndex([(Simplex("u", ()), ("out",), 1, (), 0)], 1)
    terms = [(0, {(0, 0): one, (0, 1): two}), (0, {(0, 0): field.neg(one)})]
    m = pull_matrix(lambda key: terms, out, 2, field)
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
