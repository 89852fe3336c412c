import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import multisect.matrices
from multisect.matrices import IntegerMatrix, determinant, smith_normal_form


def minors_gcd_invariant_factors(a: IntegerMatrix):
    """Independent oracle: d_k = gcd of all k-minors; the k-th invariant
    factor is d_k / d_{k-1}, stopping when the minors vanish."""
    factors = []
    previous = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                sub = IntegerMatrix.from_rows(
                    [[a.entries[r][c] for c in cols] for r in rows], k)
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return [f for f in factors if f != 1], len(factors)


def test_determinant_basics():
    assert determinant(IntegerMatrix.identity(3)) == 1
    assert determinant(IntegerMatrix.from_rows([[2, 4], [6, 8]], 2)) == -8
    assert determinant(IntegerMatrix.from_rows([[0, 1], [1, 0]], 2)) == -1
    assert determinant(IntegerMatrix.zeros(2, 2)) == 0
    with pytest.raises(ValueError):
        determinant(IntegerMatrix.zeros(2, 3))


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix(1, 2, ((1,),))
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([[1.5]], 1)


def test_snf_already_diagonal():
    snf = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 2]], 2))
    assert snf.invariant_factors == (2, 2)


def test_snf_two_by_two():
    snf = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]], 2))
    assert snf.invariant_factors == (2, 4)


def test_snf_zero_matrix():
    snf = smith_normal_form(IntegerMatrix.zeros(3, 3))
    assert snf.invariant_factors == ()
    assert snf.rank == 0


def test_snf_rectangular():
    snf = smith_normal_form(IntegerMatrix.from_rows([[1, 2, 3]], 3))
    assert snf.rank == 1
    assert snf.invariant_factors == ()


def test_snf_large_entries_stay_exact():
    big = 10 ** 30
    snf = smith_normal_form(IntegerMatrix.from_rows([[big, 0], [0, big * 3]], 2))
    assert snf.invariant_factors == (big, 3 * big)


def test_snf_identity_and_dets_asserted():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
        a = IntegerMatrix.from_rows(rows, 3)
        snf = smith_normal_form(a)
        assert determinant(snf.V) in (1, -1)


def test_snf_rectangular_against_minors_oracle():
    rng = random.Random(314159)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            cols)
        snf = smith_normal_form(a)
        oracle_factors, oracle_rank = minors_gcd_invariant_factors(a)
        assert list(snf.invariant_factors) == oracle_factors
        assert snf.rank == oracle_rank


def test_snf_against_minors_oracle_100_random():
    rng = random.Random(20260810)
    for _ in range(100):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        a = IntegerMatrix.from_rows(rows, 4)
        snf = smith_normal_form(a)
        oracle_factors, oracle_rank = minors_gcd_invariant_factors(a)
        assert list(snf.invariant_factors) == oracle_factors
        assert snf.rank == oracle_rank
        nonzero = [d for d in snf.D.diagonal() if d != 0]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0


def test_snf_transform_must_match_its_operation_log(monkeypatch):
    # negating a row by -2 instead of -1 doubles one row of D: diagonality
    # and divisibility still hold, and only the row log replayed on A*V
    # exposes the row transform as non-unimodular
    def doubling_negation(m, log, t):
        m.rows[t] = {k: -2 * x for k, x in m.rows[t].items()}
        log.append(("negate", t, t, 0))

    monkeypatch.setattr(multisect.matrices, "_negate_row", doubling_negation)
    a = IntegerMatrix.from_rows([[-1, 0], [0, 3]], 2)
    with pytest.raises(AssertionError, match="not unimodular"):
        smith_normal_form(a)


def test_snf_column_transform_must_match_its_operation_log(monkeypatch):
    # V gains 2q times a column where the log records q: only the
    # replayed column log exposes it
    original = multisect.matrices._add_col

    def doubled_column_update(m, v, log, dst, src, q):
        original(m, v, log, dst, src, q)
        for k, y in v[src].items():  # V's column dst gains q * column src again
            v[dst][k] = v[dst].get(k, 0) + q * y

    monkeypatch.setattr(multisect.matrices, "_add_col", doubled_column_update)
    a = IntegerMatrix.from_rows([[1, 2], [0, 3]], 2)
    with pytest.raises(AssertionError, match="not unimodular"):
        smith_normal_form(a)


def test_snf_of_a_tall_matrix_builds_no_rows_by_rows_matrix(monkeypatch):
    # the row transform is never built: a 200 x 8 Smith form makes no
    # matrix with 200 columns
    shapes = []
    original = IntegerMatrix.__post_init__

    def recording(self):
        shapes.append((self.rows, self.cols))
        original(self)

    rng = random.Random(200)
    a = IntegerMatrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(8)] for _ in range(200)], 8)
    monkeypatch.setattr(IntegerMatrix, "__post_init__", recording)
    snf = smith_normal_form(a)
    assert snf.rank == 8
    assert shapes and all(cols <= 8 for _, cols in shapes)


# (A, D, V) recorded from the full-scan pivot search; in each A the first
# unit in row-major order follows a larger entry, and in the first two
# other units tie with it
_UNIT_PIVOT_CASES = (
    ([[3, 1, 1], [1, 2, 5]],
     [[1, 0, 0], [0, 1, 0]],
     [[0, 1, -3], [1, -5, 14], [0, 2, -5]]),
    ([[2, 5, -1], [1, 4, 7], [-1, 0, 3]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 30]],
     [[0, 2, -9], [0, -1, 5], [1, -1, 7]]),
    ([[4, 6], [6, 1], [1, 9]],
     [[1, 0], [0, 1], [0, 0]],
     [[0, 1], [1, -6]]),
    ([[2, 4, 6], [6, -1, 8], [4, 1, 2]],
     [[1, 0, 0], [0, 2, 0], [0, 0, 60]],
     [[0, 1, -13], [1, 6, -70], [0, 0, 1]]),
)


@pytest.mark.parametrize("a,d,v", _UNIT_PIVOT_CASES)
def test_snf_unit_pivot_is_the_first_least_entry(a, d, v):
    # the pivot scan stops at the first unit, which the rule (least
    # absolute value, ties by row then column) picks anyway
    snf = smith_normal_form(IntegerMatrix.from_rows(a, len(a[0])))
    assert snf.D == IntegerMatrix.from_rows(d, len(a[0]))
    assert snf.V == IntegerMatrix.from_rows(v, len(a[0]))


def _naive_product(a, b):
    return tuple(tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
                       for j in range(b.cols))
                 for i in range(a.rows))


@st.composite
def matrix_pairs(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10 ** 25, 10 ** 25))

    def matrix(rows, cols):
        zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
        return IntegerMatrix.from_rows(
            [[0 if i in zero_rows or j in zero_cols else draw(entry)
              for j in range(cols)] for i in range(rows)], cols)

    return matrix(r, k), matrix(k, c)


@given(matrix_pairs())
def test_matmul_matches_naive_triple_sum(pair):
    a, b = pair
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == _naive_product(a, b)


def reference_smith_normal_form(a: IntegerMatrix):
    """The elimination on dense rows, scanning the whole trailing block
    for the pivot and for a divisibility offender: the same pivot rule
    and operations as ``smith_normal_form``, without its sparse rows,
    column index or self-checks.  Returns (D, V, invariant factors)."""
    r, c = a.rows, a.cols
    m = [list(row) for row in a.entries]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def swap_cols(i, j):
        for row in m + v:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, q):
        for row in m + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(r, c):
        pivot = best = None
        for i in range(t, r):
            for j in range(t, c):
                if m[i][j] and (best is None or abs(m[i][j]) < best):
                    pivot, best = (i, j), abs(m[i][j])
        if pivot is None:
            break
        m[t], m[pivot[0]] = m[pivot[0]], m[t]
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, r):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, c):
            if m[t][j]:
                add_col(j, t, -(m[t][j] // m[t][t]))
                dirty = dirty or m[t][j] != 0
        if dirty:
            continue
        offender = next((i for i in range(t + 1, r) for j in range(t + 1, c)
                         if m[i][j] % m[t][t]), None)
        if offender is not None:
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    d = IntegerMatrix.from_rows(m, c)
    return d, IntegerMatrix.from_rows(v, c), tuple(x for x in d.diagonal() if x not in (0, 1))


def _matrix_entries(scale):
    """Mostly zeros, small multiples of ``scale``, and now and then one of
    absolute value 10^30 or more."""
    return st.one_of(st.just(0), st.just(0), st.integers(-9, 9).map(lambda x: x * scale),
                     st.integers(10 ** 30, 10 ** 31), st.integers(-10 ** 31, -10 ** 30))


@st.composite
def sparse_matrices(draw):
    """Rectangular, with zero rows and columns among them, and scaled so
    that every pivot may be a non-unit."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    zero_rows, zero_cols = (draw(st.sets(st.integers(0, 6), max_size=2)) for _ in "rc")
    entries = _matrix_entries(draw(st.sampled_from([1, 1, 2, 6])))
    return IntegerMatrix.from_rows(
        [[0 if i in zero_rows or j in zero_cols else draw(entries) for j in range(cols)]
         for i in range(rows)], cols)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_sparse_snf_agrees_with_the_dense_oracle(a):
    snf = smith_normal_form(a)
    assert (snf.D, snf.V, snf.invariant_factors) == reference_smith_normal_form(a)


def test_sparse_snf_agrees_with_the_dense_oracle_on_a_large_residue():
    # the simplified pi1 of a central genus 480 product diagram: g^5 for
    # each of 240 generators, a diagonal of non-unit pivots
    a = IntegerMatrix.from_rows([[5 if i == j else 0 for j in range(240)]
                                 for i in range(240)], 240)
    snf = smith_normal_form(a)
    assert snf.invariant_factors == (5,) * 240
    assert (snf.D, snf.V, snf.invariant_factors) == reference_smith_normal_form(a)
