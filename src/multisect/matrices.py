"""Exact integer matrices and Smith normal form.

Everything here works over the integers with Python's arbitrary-precision
arithmetic; no value is ever rounded or wrapped.  The Smith normal form D
of A is returned with its unimodular column transform V, and every call
checks D = E @ A @ V for a unimodular E that is never built.

Unimodularity comes from the elimination's operation log, not from a
determinant: every row or column swap, addition of a multiple of one row
or column to another, and row negation is logged.  V must equal the
identity with the column log replayed on it, and D must equal A @ V with
the row log replayed on it, both by code separate from the elimination.
Each logged operation is an elementary matrix of determinant +-1, so V
and E, the product of the logged row operations, are unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("matrix is not rectangular")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("entries must be exact integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [tuple(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        # each product row is a combination of the rows of ``other``;
        # zero coefficients add nothing and are skipped
        prod = []
        for row in self.entries:
            acc = [0] * other.cols
            for x, other_row in zip(row, other.entries):
                if x:
                    acc = [a + x * y for a, y in zip(acc, other_row)]
            prod.append(tuple(acc))
        return IntegerMatrix(self.rows, other.cols, tuple(prod))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        return all(self.entries[i][j] == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization D = E @ A @ V with unimodular E, V; E is proved by
    the row log and not kept, since no caller reads it.

    ``invariant_factors`` lists the nonzero, non-unit diagonal entries of D
    in divisibility order; ``rank`` counts all nonzero diagonal entries.
    """

    D: IntegerMatrix
    V: IntegerMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.D.diagonal() if d != 0)


# Elementary operations of the elimination.  Each one updates the working
# matrix (and V) and logs itself as (kind, dst, src, q): row operations in
# the row log, which replays on A @ V to D, and column operations in the
# column log, which replays on the identity to V transposed.
_SWAP, _ADD, _NEGATE = "swap", "add", "negate"


def _swap_rows(m, log, i, j):
    m[i], m[j] = m[j], m[i]
    log.append((_SWAP, i, j, 0))


def _swap_cols(m, v, log, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]
    log.append((_SWAP, i, j, 0))


def _add_row(m, log, dst, src, q):
    # row dst += q * row src
    m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
    log.append((_ADD, dst, src, q))


def _add_col(m, v, log, dst, src, q):
    for row in m:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]
    log.append((_ADD, dst, src, q))


def _negate_row(m, log, t):
    m[t] = [-x for x in m[t]]
    log.append((_NEGATE, t, t, 0))


def _replay(rows, log) -> tuple[tuple[int, ...], ...]:
    """``rows`` with the logged row operations applied in order.

    Written apart from the elimination's helpers on purpose: a result is
    accepted only when this independent replay of the elementary
    operations reproduces it."""
    rows = [list(row) for row in rows]
    for kind, dst, src, q in log:
        if kind == _SWAP:
            rows[dst], rows[src] = rows[src], rows[dst]
        elif kind == _ADD:
            rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]
        else:
            rows[dst] = [-x for x in rows[dst]]
    return tuple(tuple(row) for row in rows)


def smith_normal_form(a: IntegerMatrix) -> SmithForm:
    """Smith normal form by gcd-pivot elimination.

    Pivot rule: smallest nonzero absolute value in the trailing block,
    ties broken by (row, col).  The rule is fixed, so output is
    deterministic for a given input.

    Checked on every call: V equal to the identity with the logged column
    operations replayed (hence unimodular), D equal to A @ V with the
    logged row operations replayed (hence D = E @ A @ V with E unimodular),
    and D diagonal with its nonzero entries in a divisibility chain.
    """
    r, c = a.rows, a.cols
    m = [list(row) for row in a.entries]
    v = [list(row) for row in IntegerMatrix.identity(c).entries]
    row_log: list = []
    col_log: list = []

    t = 0
    while t < min(r, c):
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            _swap_rows(m, row_log, t, pivot[0])
        if pivot[1] != t:
            _swap_cols(m, v, col_log, t, pivot[1])

        dirty = False
        for i in range(t + 1, r):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                _add_row(m, row_log, i, t, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, c):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                _add_col(m, v, col_log, j, t, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # enforce the divisibility chain before moving on
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(m, row_log, t, offender, 1)
            continue

        if m[t][t] < 0:
            _negate_row(m, row_log, t)
        t += 1

    d_mat = IntegerMatrix.from_rows(m, c)
    v_mat = IntegerMatrix.from_rows(v, c)

    diag = d_mat.diagonal()
    factors = tuple(d for d in diag if d not in (0, 1))

    if v_mat.entries != tuple(zip(*_replay(IntegerMatrix.identity(c).entries, col_log))):
        raise AssertionError("Smith normal form V is not the replayed column log: not unimodular")
    if d_mat.entries != _replay((a @ v_mat).entries, row_log):
        raise AssertionError("Smith normal form D is not A*V with the row log replayed: not unimodular")
    if not d_mat.is_diagonal():
        raise AssertionError("Smith normal form result is not diagonal")
    nonzero = [d for d in diag if d != 0]
    for x, y in zip(nonzero, nonzero[1:]):
        if y % x != 0:
            raise AssertionError("invariant factors do not form a divisibility chain")

    return SmithForm(d_mat, v_mat, factors)
