import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, get_prestack
from oracles import dense_kernel, dense_rank_of_sparse, entry_dict, from_triplet_text
from prestacks.cli import cohomology_table
from prestacks.io import load_prestack
from prestacks.linalg import (DualNumbers, PrimeField, QQ, SparseMatrix, accumulate,
                              betti_numbers, is_prime, make_field)


def betti(d_in, d_out):
    """dim ker(d_out) - rank(d_in) at one complex position."""
    return betti_numbers([d_in, d_out])[0]


def from_entries(nrows, ncols, field, entries):
    """The matrix whose (i, j) entry is the sum of the values given at (i, j)."""
    row_data = [{} for _ in range(nrows)]
    for i, j, v in entries:
        accumulate(field, row_data[i], j, v)
    return SparseMatrix(nrows, ncols, field, row_data)


def mat_from_rows(rows, field=QQ):
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    return from_entries(nrows, ncols, field, [(i, j, field.parse(v))
                                              for i, row in enumerate(rows)
                                              for j, v in enumerate(row) if v])


def test_rank_identity():
    assert mat_from_rows([[1, 0], [0, 1]]).rank() == 2


def test_rank_proportional_rows():
    assert mat_from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_zero_matrix():
    m = SparseMatrix(3, 3, QQ)
    assert len(m.kernel_basis()) == 3


def test_kernel_identity_empty():
    assert mat_from_rows([[1, 0], [0, 1]]).kernel_basis() == []


def test_kernel_one_relation():
    m = mat_from_rows([[1, 1]])
    (v,) = m.kernel_basis()
    assert v[0] == -v[1] != 0
    assert all(x == 0 for x in m.matvec(v))


@pytest.mark.parametrize("seed", range(8))
def test_random_sparse_rank_matches_dense_oracle(seed):
    rng = random.Random(seed)
    m = from_entries(30, 30, QQ, [(rng.randrange(30), rng.randrange(30),
                                   Fraction(rng.randint(-3, 3))) for _ in range(120)])
    assert m.rank() == dense_rank_of_sparse(m)
    ker = m.kernel_basis()
    assert len(ker) == 30 - m.rank()
    for v in ker:
        assert all(x == 0 for x in m.matvec(v))


@pytest.mark.parametrize("p", [2, 7, 1000003])
def test_random_rank_over_prime_field(p):
    F = PrimeField(p)
    rng = random.Random(p)
    entries = []
    dense = {}
    for _ in range(90):
        i, j = rng.randrange(20), rng.randrange(25)
        v = rng.randint(-5, 5)
        entries.append((i, j, F.from_int(v)))
        dense[(i, j)] = dense.get((i, j), 0) + v
    m = from_entries(20, 25, F, entries)
    from oracles import dense_rank
    # compare against the dense oracle run over Q only when no entry is a
    # multiple of p (rank can genuinely differ otherwise)
    if p > 10:
        assert m.rank() == dense_rank(
            {k: v for k, v in dense.items() if v % p}, 20, 25)
    ker = m.kernel_basis()
    assert len(ker) == 25 - m.rank()
    for v in ker:
        assert all(F.is_zero(x) for x in m.matvec(v))


def test_betti_zero_maps():
    z1 = SparseMatrix(5, 0, QQ)
    z2 = SparseMatrix(0, 5, QQ)
    assert betti(z1, z2) == 5


def test_betti_identity_out():
    z1 = SparseMatrix(5, 0, QQ)
    ident = mat_from_rows([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert betti(z1, ident) == 0


PLAIN_RANK = SparseMatrix.rank
FIXTURES = ["triv-A2", "triv-A3", "scalar-twist-2chain", "scalar-twist-3chain",
            "rank2-fiber", "dual-pair"]


@pytest.fixture
def rank_calls(monkeypatch):
    """Every rank taken, as (matrix, skip_cols, pivot rows, result)."""
    calls = []

    def recording_rank(self, *, skip_cols=(), pivot_rows=None):
        skip_cols = list(skip_cols)
        if pivot_rows is None:
            pivot_rows = []
        result = PLAIN_RANK(self, skip_cols=skip_cols, pivot_rows=pivot_rows)
        calls.append((self, skip_cols, pivot_rows, result))
        return result

    monkeypatch.setattr(SparseMatrix, "rank", recording_rank)
    return calls


def check_compressed_ranks(calls):
    """Each call skips the pivot rows of the one before; each rank is the plain
    rank, and the pivot rows are as many independent rows as the rank."""
    assert calls[0][1] == []
    for (_, _, before, _), (_, skip, _, _) in zip(calls, calls[1:]):
        assert skip == before
    for m, _, rows, result in calls:
        assert result == PLAIN_RANK(m)
        assert len(rows) == len(set(rows)) == result
        picked = SparseMatrix(len(rows), m.cols, m.field, [m.row_data[i] for i in rows])
        assert PLAIN_RANK(picked) == result


def test_betti_rejects_non_complex(rank_calls):
    # The composite is not zero at the only pair, then at the later of two.
    # Either way nothing is ranked first: the compression of each rank by the
    # previous pivot rows is sound only on a complex.
    d_in = mat_from_rows([[1], [0]])
    for diffs in ([d_in, mat_from_rows([[1, 0]])],
                  [d_in, mat_from_rows([[0, 1]]), mat_from_rows([[1]])]):
        with pytest.raises(ValueError, match="not a complex"):
            betti_numbers(diffs)
    assert rank_calls == []


@pytest.mark.parametrize("field", ["Q", "F1000003"])
@pytest.mark.parametrize("name", FIXTURES)
def test_betti_ranks_equal_plain_ranks_on_fixtures(rank_calls, name, field):
    if field == "Q":
        P = get_prestack(name)
    else:
        P = load_prestack(fixture_path(name), ring={"Fp": 1000003})
    for which in ("gs", "nr", "graded"):
        del rank_calls[:]
        cohomology_table(P, which, 3)
        assert len(rank_calls) == 5
        check_compressed_ranks(rank_calls)
        assert any(skip for _, skip, _, _ in rank_calls)


def random_invertible(n, F, rng):
    """A random invertible n x n matrix and its inverse: a product of row
    scalings and row additions."""
    P = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * n):
        i = rng.randrange(n)
        if n > 1 and rng.random() < 0.7:
            # row i += c row j; the inverse gets column j -= c column i
            j = rng.choice([k for k in range(n) if k != i])
            c = F.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
            P[i] = [F.add(a, F.mul(c, b)) for a, b in zip(P[i], P[j])]
            for row in Pinv:
                row[j] = F.sub(row[j], F.mul(c, row[i]))
        else:
            # row i *= s; the inverse gets column i /= s
            s = F.from_int(rng.choice([-2, 2, 3, 5]))
            if F is QQ and rng.random() < 0.5:
                s = Fraction(1, int(s))
            P[i] = [F.mul(s, a) for a in P[i]]
            inv = F.inv(s)
            for row in Pinv:
                row[i] = F.mul(row[i], inv)
    return mat_from_rows(P, F), mat_from_rows(Pinv, F)


def random_exact_complex(F, rng, length):
    """Differentials C^0 -> ... -> C^length with a zero map into C^0 in front,
    and the dims of their cohomology at C^0 .. C^{length-1}.

    C^n is B^n + H^n + E^n, where E^n maps by the identity onto B^{n+1} and
    everything else to zero; each C^n then gets a random change of basis.
    """
    b = [0] + [rng.randrange(4) for _ in range(length)]
    h = [rng.randrange(3) for _ in range(length + 1)]
    dims = [b[n] + h[n] + (b[n + 1] if n < length else 0) for n in range(length + 1)]
    bases = [random_invertible(dim, F, rng) for dim in dims]
    diffs = [SparseMatrix(dims[0], 0, F)]
    for n in range(length):
        # coordinates of C^n in the order B, H, E
        D = from_entries(dims[n + 1], dims[n], F,
                         [(k, b[n] + h[n] + k, F.one) for k in range(b[n + 1])])
        diffs.append(bases[n + 1][0].mul(D).mul(bases[n][1]))
    return diffs, h[:length]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=["Q", "F7", "F1000003"])
def test_betti_numbers_of_random_exact_complexes(rank_calls, field, seed):
    rng = random.Random(seed)
    diffs, expected = random_exact_complex(field, rng, 5)
    assert betti_numbers(diffs) == expected
    check_compressed_ranks(rank_calls)


def test_matrix_product_and_equality():
    a = mat_from_rows([[1, 2], [3, 4]])
    b = mat_from_rows([[0, 1], [1, 0]])
    assert a.mul(b) == mat_from_rows([[2, 1], [4, 3]])


def test_solve_consistent_and_inconsistent():
    m = mat_from_rows([[1, 1], [0, 0]])
    sol = m.solve([Fraction(3), Fraction(0)])
    assert sol is not None and sol[0] + sol[1] == 3
    assert m.solve([Fraction(3), Fraction(1)]) is None


def test_triplet_round_trip():
    m = mat_from_rows([[Fraction(1, 2), 0], [0, -3]])
    text = m.to_triplet_text()
    first = text.splitlines()[0]
    assert first == "2 2 2"
    m2 = from_triplet_text(text, QQ)
    assert m == m2


def test_triplet_zero_matrix_header():
    m = SparseMatrix(4, 3, QQ)
    assert m.to_triplet_text().splitlines()[0] == "4 3 0"


@pytest.mark.parametrize("i,j", [(-1, 0), (2, 0), (0, -1), (0, 3)])
def test_entry_outside_the_shape_raises_index_error(i, j):
    with pytest.raises(IndexError):
        from_triplet_text("2 3 1\n%d %d 1\n" % (i, j), QQ)
    # at construction a column is a key of a row dict and a row a position in
    # the list, so a row outside the shape is one row dict too many or too few
    row_data = [{j: 1}, {}] if i == 0 else [{}, {}, {0: 1}] if i > 0 else [{0: 1}]
    with pytest.raises(IndexError):
        SparseMatrix(2, 3, QQ, row_data)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), DualNumbers(QQ)], ids=["Q", "F7", "Q[e]"])
def test_operations_leave_their_operands_unchanged(field):
    rng = random.Random(5)

    def scalar():
        if isinstance(field, DualNumbers):
            return field.parse([rng.randint(-2, 2), rng.randint(-2, 2)])
        return field.parse(rng.choice([0, 1, -1, 2, "1/2"]))

    def matrix(rows, cols):
        return from_entries(rows, cols, field, [(i, j, scalar()) for i in range(rows)
                                                for j in range(cols)])

    a, b, c = matrix(4, 5), matrix(5, 3), matrix(4, 5)
    rhs = [scalar() for _ in range(4)]
    before = [m.to_triplet_text() for m in (a, b, c)]
    a.mul(b)
    a.plus(c)
    a.solve(rhs)
    if not isinstance(field, DualNumbers):  # elimination needs a field
        for m in (a, b, c):
            m.rank()
            m.rref_pivots()
            m.kernel_basis()
    assert [m.to_triplet_text() for m in (a, b, c)] == before


rationals = st.fractions(min_value=-50, max_value=50)


def is_q_normal(x):
    """A Q scalar in normal form: an int, or a Fraction that is not integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


q_inputs = st.one_of(st.integers(min_value=-50, max_value=50),
                     st.fractions(min_value=-50, max_value=50, max_denominator=12))


@settings(max_examples=300, deadline=None)
@given(q_inputs, q_inputs)
def test_rational_field_keeps_integral_values_as_ints(a, b):
    # inputs may be ints or Fractions, integral or not, as tests build them
    fa, fb = Fraction(a), Fraction(b)
    cases = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
             (QQ.mul(a, b), fa * fb), (QQ.neg(QQ.parse(a)), -fa),
             (QQ.parse(a), fa), (QQ.parse(str(b)), fb)]
    if b != 0:
        cases.append((QQ.inv(b), 1 / fb))
    for got, want in cases:
        assert got == want
        assert is_q_normal(got)
        assert (type(got) is int) == (want.denominator == 1)
    assert QQ.show(QQ.parse(a)) == str(fa)


def test_rational_field_constants_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.from_int(-3)) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.parse("6/3") == 2 and type(QQ.parse("6/3")) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_dual_number_product(a, b, c, d):
    D = DualNumbers(QQ)
    x, y = (a, b), (c, d)
    assert D.mul(x, y) == (a * c, a * d + b * c)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_dual_number_inverse(a, b):
    D = DualNumbers(QQ)
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            D.inv((a, b))
    else:
        assert D.mul(D.inv((a, b)), (a, b)) == D.one


def test_make_field_tags():
    assert make_field("Q") is QQ
    assert isinstance(make_field({"Fp": 101}), PrimeField)
    assert isinstance(make_field("Q[e]"), DualNumbers)
    assert isinstance(make_field({"Fp[e]": 101}), DualNumbers)
    with pytest.raises(ValueError):
        make_field("Z")


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_sparse_rank_matches_dense_oracle_bulk(seed):
    # 200 sampled matrices over Q and over a prime field
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 14), rng.randint(1, 14)
    entries = [(rng.randrange(rows), rng.randrange(cols), rng.randint(-4, 4))
               for _ in range(rng.randint(0, 3 * max(rows, cols)))]
    mq = from_entries(rows, cols, QQ, [(i, j, Fraction(v)) for i, j, v in entries])
    acc = {}
    for i, j, v in entries:
        acc[(i, j)] = acc.get((i, j), 0) + v
    assert mq.rank() == dense_rank_of_sparse(mq)
    p = 1000003
    F = PrimeField(p)
    mp = from_entries(rows, cols, F, [(i, j, F.from_int(v))
                                      for (i, j), v in acc.items() if v % p])
    # entries stay far below p, so the prime-field rank agrees with Q
    assert mp.rank() == mq.rank()


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_kernel_matches_dense_rref_oracle(seed):
    # non-integer entries over Q, and the same shapes over a small prime
    # field, where cancellation mod p is common
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    cells = [(rng.randrange(rows), rng.randrange(cols))
             for _ in range(rng.randint(0, 3 * max(rows, cols)))]
    mq = from_entries(rows, cols, QQ, [(i, j, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                                       for i, j in cells])
    assert mq.kernel_basis() == dense_kernel(entry_dict(mq), rows, cols)
    assert all(is_q_normal(v) for vec in mq.kernel_basis() for v in vec)
    assert mq.rank() == cols - len(mq.kernel_basis())
    # an integer matrix with RREF [I | B], B integral, hidden by unimodular
    # row operations: its RREF and kernel are integral and come out as ints
    r = rng.randint(1, min(rows, cols))
    tail = [[rng.randint(-3, 3) for _ in range(cols - r)] for _ in range(r)]
    dense = [[int(i == j) for j in range(r)] + tail[i] for i in range(r)]
    dense += [[0] * cols for _ in range(rows - r)]
    for _ in range(3 * rows if rows > 1 else 0):
        a, b = rng.sample(range(rows), 2)
        k = rng.randint(-2, 2)
        dense[a] = [x + k * y for x, y in zip(dense[a], dense[b])]
    mi = SparseMatrix(rows, cols, QQ, [{j: v for j, v in enumerate(row) if v}
                                       for row in dense])
    assert mi.kernel_basis() == dense_kernel(entry_dict(mi), rows, cols)
    assert sorted(mi.rref_pivots()) == list(range(r))
    assert all(type(v) is int for row in mi.rref_pivots().values() for v in row.values())
    assert all(type(v) is int for vec in mi.kernel_basis() for v in vec)
    F = PrimeField(7)
    mp = from_entries(rows, cols, F, [(i, j, F.from_int(rng.randint(1, 6))) for i, j in cells])
    assert mp.kernel_basis() == dense_kernel(entry_dict(mp), rows, cols, p=7)
    assert mp.rank() == cols - len(mp.kernel_basis())


def test_rank_rejects_non_field():
    m = SparseMatrix(1, 1, DualNumbers(QQ), [{0: (Fraction(1), Fraction(0))}])
    with pytest.raises(TypeError):
        m.rank()


def test_product_check_rejects_non_field():
    m = SparseMatrix(1, 1, DualNumbers(QQ), [{0: (1, 0)}])
    with pytest.raises(TypeError, match="elimination needs a field"):
        m.product_is_zero(m)
    with pytest.raises(TypeError, match="elimination needs a field"):
        betti_numbers([m, m])


def random_matrix(rng, rows, cols, field, density=0.4):
    """Random entries: small Fractions over Q, any residue over F_p."""
    def value():
        if field is QQ:
            return QQ.parse(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        return field.from_int(rng.randrange(field.p))
    return from_entries(rows, cols, field, [(i, j, value()) for i in range(rows)
                                            for j in range(cols) if rng.random() < density])


def left_annihilator(b, rng):
    """Random combinations of a basis of the vectors x with x b = 0, as rows."""
    F = b.field
    ker = SparseMatrix(b.cols, b.rows, F, b.col_lists()).kernel_basis()
    rows = []
    for _ in range(3):
        acc = {}
        for vec in ker:
            c = F.from_int(rng.randint(-3, 3))
            for j, v in enumerate(vec):
                accumulate(F, acc, j, F.mul(c, v))
        rows.append(acc)
    return SparseMatrix(len(rows), b.rows, F, rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(1000003)],
                         ids=["Q", "F7", "F1000003"])
@pytest.mark.parametrize("seed", range(6))
def test_product_check_agrees_with_mul(field, seed):
    rng = random.Random(seed)
    b = random_matrix(rng, 8, 5, field)
    zero = left_annihilator(b, rng)
    assert zero.product_is_zero(b) and zero.mul(b).is_zero()
    for a in (zero, random_matrix(rng, 4, 8, field), random_matrix(rng, 4, 8, field, 0.1)):
        assert a.product_is_zero(b) == a.mul(b).is_zero()
    with pytest.raises(ValueError):
        b.product_is_zero(b)


def test_product_check_reduces_mod_p_and_cancels_fractions():
    # zero only mod p: the integer sums are 7 and 1000003
    for p, (x, y) in ((7, (3, 4)), (1000003, (500001, 500002))):
        F = PrimeField(p)
        a = mat_from_rows([[1, 1]], F)
        assert a.product_is_zero(mat_from_rows([[x], [y]], F))
        assert not a.product_is_zero(mat_from_rows([[x], [x]], F))
    # zero only once 1/3 - 2/6 cancels
    a = mat_from_rows([["1/3", "1/6"]])
    assert a.product_is_zero(mat_from_rows([[1], [-2]]))
    assert not a.product_is_zero(mat_from_rows([[1], [-1]]))


def test_prime_field_parse_refuses_a_denominator_divisible_by_p():
    F = PrimeField(7)
    assert F.parse("6/5") == 4
    with pytest.raises(ValueError, match="6/14 .* 7"):
        F.parse("6/14")


@pytest.mark.parametrize("base", [QQ, PrimeField(101)], ids=["Q", "F101"])
def test_dual_solve_non_invertible_pivot(base):
    D = DualNumbers(base)
    e = SparseMatrix(1, 1, D, [{0: D.eps}])
    x = e.solve([D.eps])
    assert x is not None and e.matvec(x) == [D.eps]
    assert e.solve([D.one]) is None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("base", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_dual_solve_random_consistent_systems(base, seed):
    rng = random.Random(seed)
    D = DualNumbers(base)
    n, m = rng.randint(1, 5), rng.randint(1, 5)

    def scalar():
        # many entries with a zero or non-invertible part
        return D.parse([rng.choice([0, 0, 1, -1, 2]), rng.choice([0, 1, -2])])

    A = from_entries(n, m, D, [(i, j, scalar()) for i in range(n) for j in range(m)])
    b = A.matvec([scalar() for _ in range(m)])
    x = A.solve(b)
    assert x is not None and A.matvec(x) == b


@pytest.mark.parametrize("seed", range(20))
def test_dual_solve_agrees_with_brute_force(seed):
    # over F_3[e] a 2x2 system has 81 candidate solutions: try them all
    rng = random.Random(seed)
    D = DualNumbers(PrimeField(3))
    scalars = [(a, b) for a in range(3) for b in range(3)]
    A = from_entries(2, 2, D, [(i, j, rng.choice(scalars)) for i in range(2) for j in range(2)])
    b = [rng.choice(scalars) for _ in range(2)]
    solvable = any(A.matvec([x0, x1]) == b for x0 in scalars for x1 in scalars)
    x = A.solve(b)
    assert (x is not None) == solvable
    if x is not None:
        assert A.matvec(x) == b


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if is_prime(n)] == [n for n in range(5000) if trial(n)]
    # strong pseudoprimes to the first few bases, and 2**31 - 1
    for n in (2047, 1373653, 25326001):
        assert is_prime(n) == trial(n)
    assert is_prime(2 ** 31 - 1)


@pytest.mark.parametrize("n", [0, 1, 4, 9, 561, 2047, 1000001])
def test_prime_field_rejects_composite_modulus(n):
    with pytest.raises(ValueError):
        PrimeField(n)
