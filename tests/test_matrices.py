import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

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
        m[t] = [-2 * x for x in m[t]]
        log.append(("negate", t, t, 0))

    monkeypatch.setattr(multisect.matrices, "_negate_row", doubling_negation)
    a = IntegerMatrix.from_rows([[-1, 0], [0, 3]], 2)
    with pytest.raises(AssertionError, match="not unimodular"):
        smith_normal_form(a)


def test_snf_column_transform_must_match_its_operation_log(monkeypatch):
    # V gains 2q times a column where the log records q: only the
    # replayed column log exposes it
    def doubled_column_update(m, v, log, dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += 2 * q * row[src]
        log.append(("add", dst, src, q))

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
