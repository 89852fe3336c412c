"""Exact integer matrices and Smith normal form.

A matrix is a sequence of integer rows.  Everything here works over the
integers with Python's arbitrary-precision arithmetic; no value is ever
rounded or wrapped.  The Smith normal form D of A is returned as its
diagonal with its unimodular column transform V, and every call checks
D = E @ A @ V for a unimodular E that is never built.  The elimination,
the result and the checks are all sparse: no dense matrix is built.

Unimodularity comes from the elimination's operation log, not from a
determinant: every row or column swap, addition of a multiple of one row
or column to another, and row negation is logged.  V is the identity
with the column log replayed on it, and D must equal A @ V with the row
log replayed on it, both replays by code separate from the elimination.
Each logged operation is an elementary matrix of determinant +-1, so V
and E, the product of the logged row operations, are unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in rows]
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
    """Diagonalization D = E @ A @ V with unimodular E, V, held sparse:
    D by its diagonal, V by its columns, each a map from a row to the
    nonzero entry there.  E is proved by the row log and not kept, since
    no caller reads it.

    ``invariant_factors`` lists the nonzero, non-unit diagonal entries of D
    in divisibility order; ``rank`` counts all nonzero diagonal entries.
    """

    diagonal: tuple[int, ...]
    V: tuple[dict[int, int], ...]
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


# Elementary operations of the elimination.  Each one updates the working
# matrix and logs itself as (kind, dst, src, q): row operations in
# the row log, which replays on A @ V to D, and column operations in the
# column log, which replays on the identity to the columns of V.
_SWAP, _ADD, _NEGATE = "swap", "add", "negate"


class _SparseMatrix:
    """The working matrix of the elimination: ``rows[i]`` maps each
    column to the nonzero entry of row i there, and ``cols[j]`` is the
    set of rows with a nonzero entry in column j."""

    __slots__ = ("rows", "cols")

    def __init__(self, a: Sequence[Sequence[int]], cols: int):
        self.rows: list[dict[int, int]] = []
        self.cols: list[set[int]] = [set() for _ in range(cols)]
        for i, entries in enumerate(a):
            if len(entries) != cols:
                raise ValueError("matrix is not rectangular")
            row = {}
            for j, x in enumerate(entries):
                if not isinstance(x, int):
                    raise ValueError("entries must be exact integers")
                if x:
                    row[j] = x
                    self.cols[j].add(i)
            self.rows.append(row)


def _swap_rows(m, log, i, j):
    for k in m.rows[i]:
        m.cols[k].discard(i)
    for k in m.rows[j]:
        m.cols[k].discard(j)
    m.rows[i], m.rows[j] = m.rows[j], m.rows[i]
    for k in m.rows[i]:
        m.cols[k].add(i)
    for k in m.rows[j]:
        m.cols[k].add(j)
    log.append((_SWAP, i, j, 0))


def _swap_cols(m, log, i, j):
    for k in m.cols[i] | m.cols[j]:
        row = m.rows[k]
        x, y = row.pop(i, 0), row.pop(j, 0)
        if y:
            row[i] = y
        if x:
            row[j] = x
    m.cols[i], m.cols[j] = m.cols[j], m.cols[i]
    log.append((_SWAP, i, j, 0))


def _add_row(m, log, dst, src, q):
    # row dst += q * row src
    row, cols = m.rows[dst], m.cols
    for k, y in m.rows[src].items():
        x = row.get(k, 0) + q * y
        if x:
            if k not in row:
                cols[k].add(dst)
            row[k] = x
        elif row.pop(k, 0):
            cols[k].discard(dst)
    log.append((_ADD, dst, src, q))


def _add_col(m, log, dst, src, q):
    # column dst += q * column src
    for k in m.cols[src]:
        row = m.rows[k]
        x = row.get(dst, 0) + q * row[src]
        if x:
            if dst not in row:
                m.cols[dst].add(k)
            row[dst] = x
        elif row.pop(dst, 0):
            m.cols[dst].discard(k)
    log.append((_ADD, dst, src, q))


def _negate_row(m, log, t):
    m.rows[t] = {k: -x for k, x in m.rows[t].items()}
    log.append((_NEGATE, t, t, 0))


def _replay(rows, log) -> list[dict[int, int]]:
    """``rows``, each a map from a column to its nonzero entry, with the
    logged row operations applied in order.

    Written apart from the elimination's helpers on purpose: V is this
    replay of the column log, and D is accepted only when this replay of
    the row log on A @ V reproduces it."""
    rows = [dict(row) for row in rows]
    for kind, dst, src, q in log:
        if kind == _SWAP:
            rows[dst], rows[src] = rows[src], rows[dst]
        elif kind == _ADD:
            row = rows[dst]
            for k, y in rows[src].items():
                row[k] = row.get(k, 0) + q * y
                if not row[k]:
                    del row[k]
        else:
            rows[dst] = {k: -x for k, x in rows[dst].items()}
    return rows


def smith_normal_form(rows: Sequence[Sequence[int]], cols: int) -> SmithForm:
    """Smith normal form of the matrix with the given rows, each of
    ``cols`` exact integers, by gcd-pivot elimination.

    Pivot rule: smallest nonzero absolute value in the trailing block,
    ties broken by (row, col).  The rule is fixed, so output is
    deterministic for a given input.

    The working matrix is sparse (see :class:`_SparseMatrix`), so the
    pivot and divisibility scans touch only the nonzero entries of the
    trailing block, and a row or column operation only the entries it
    changes.  Rows and columns before the step's index t hold nothing
    but their diagonal entry, so every entry of a row from t on lies in
    the trailing block.  The elimination keeps no V: V is the identity
    with the logged column operations replayed, so unimodular.

    Checked on every call, on sparse rows: D equal to A @ V with the
    logged row operations replayed (hence D = E @ A @ V with E
    unimodular; a column operation that does not do what it logs fails
    here), and D diagonal with its nonzero entries in a divisibility
    chain.
    """
    m = _SparseMatrix(rows, cols)
    a = [dict(row) for row in m.rows]  # A, kept for the check of D
    r, c = len(a), cols
    rows = m.rows  # swaps exchange entries of this list, never the list
    row_log: list = []
    col_log: list = []

    t = 0
    while t < min(r, c):
        pivot, best = None, 0
        for i in range(t, r):
            for j, x in rows[i].items():  # in no column order, so a tie
                if not best or abs(x) < best or (abs(x) == best and i == pivot[0]
                                                 and j < pivot[1]):  # goes left
                    pivot, best = (i, j), abs(x)
            if best == 1:  # nothing is smaller, and a later row loses a tie
                break
        if pivot is None:
            break
        if pivot[0] != t:
            _swap_rows(m, row_log, t, pivot[0])
        if pivot[1] != t:
            _swap_cols(m, col_log, t, pivot[1])

        p = rows[t][t]
        dirty = False
        for i in sorted(m.cols[t]):
            if i > t:
                _add_row(m, row_log, i, t, -(rows[i][t] // p))
                dirty = dirty or t in rows[i]
        for j in sorted(rows[t]):
            if j > t:
                _add_col(m, col_log, j, t, -(rows[t][j] // p))
                dirty = dirty or j in rows[t]
        if dirty:
            continue

        # enforce the divisibility chain before moving on; every integer
        # is divisible by a unit pivot, so only a larger one needs the scan
        offender = None if abs(p) == 1 else next(
            (i for i in range(t + 1, r) if any(x % p for x in rows[i].values())), None)
        if offender is not None:
            _add_row(m, row_log, t, offender, 1)
            continue

        if p < 0:
            _negate_row(m, row_log, t)
        t += 1

    v = _replay([{j: 1} for j in range(c)], col_log)  # the columns of V
    v_rows: list[dict[int, int]] = [{} for _ in range(c)]
    for j, column in enumerate(v):
        for i, x in column.items():
            v_rows[i][j] = x
    av = []  # A @ V, each row a combination of V's rows
    for row in a:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in v_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        av.append({j: x for j, x in acc.items() if x})

    diagonal = tuple(rows[i].get(i, 0) for i in range(min(r, c)))
    factors = tuple(d for d in diagonal if d not in (0, 1))

    if rows != _replay(av, row_log):
        raise AssertionError("Smith normal form D is not A*V with the row log replayed: not unimodular")
    if any(j != i for i, row in enumerate(rows) for j in row):
        raise AssertionError("Smith normal form result is not diagonal")
    nonzero = [d for d in diagonal if d != 0]
    for x, y in zip(nonzero, nonzero[1:]):
        if y % x != 0:
            raise AssertionError("invariant factors do not form a divisibility chain")

    return SmithForm(diagonal, tuple(v), factors)
