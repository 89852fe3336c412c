"""Exact integer matrices and Smith normal form.

A matrix is a sequence of integer rows.  Everything here works over the
integers with Python's arbitrary-precision arithmetic; no value is ever
rounded or wrapped.  The Smith normal form D of A is returned as its
diagonal with its unimodular column transform V, and every call checks
D = E @ A @ V for a unimodular E that is never built.  The elimination,
the result and the checks are all sparse: no dense matrix is built.
The elimination holds its matrix both ways, by rows and by columns, so
one kernel of three operations (swap, add a multiple, negate) performs
both its row and its column operations.

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


# Elementary operations of the elimination.  ``_lines`` holds the working
# matrix both ways, as rows (column -> nonzero entry) and as columns
# (row -> nonzero entry).  Each operation acts on the lines of ``major``
# and keeps ``minor``, the other holding, its transpose: a row operation
# is ``op(rows, columns, row_log, ...)``, a column operation
# ``op(columns, rows, col_log, ...)``.  Each logs itself as (kind, dst,
# src, q): the row log replays on A @ V to D, the column log on the
# identity to the columns of V.
_SWAP, _ADD, _NEGATE = "swap", "add", "negate"


def _lines(a: Sequence[Sequence[int]], cols: int):
    """The rows and the columns of the matrix with rows ``a``."""
    rows: list[dict[int, int]] = []
    columns: list[dict[int, int]] = [{} for _ in range(cols)]
    for i, entries in enumerate(a):
        if len(entries) != cols:
            raise ValueError("matrix is not rectangular")
        row = {}
        for j, x in enumerate(entries):
            if not isinstance(x, int):
                raise ValueError("entries must be exact integers")
            if x:
                row[j] = columns[j][i] = x
        rows.append(row)
    return rows, columns


def _swap(major, minor, log, i, j):
    for k in major[i].keys() | major[j].keys():
        line = minor[k]
        x, y = line.pop(i, 0), line.pop(j, 0)
        if y:
            line[i] = y
        if x:
            line[j] = x
    major[i], major[j] = major[j], major[i]
    log.append((_SWAP, i, j, 0))


def _add(major, minor, log, dst, src, q):
    # line dst += q * line src
    line = major[dst]
    for k, y in major[src].items():
        x = line.get(k, 0) + q * y
        if x:
            line[k] = minor[k][dst] = x
        elif line.pop(k, 0):
            del minor[k][dst]
    log.append((_ADD, dst, src, q))


def _negate(major, minor, log, t):
    line = major[t]
    for k, x in line.items():
        line[k] = minor[k][t] = -x
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

    The working matrix is sparse and held both ways (see :func:`_lines`),
    so the pivot and divisibility scans touch only the nonzero entries of
    the trailing block, and a row or column operation only the entries
    it changes.  Rows and columns before the step's index t hold nothing
    but their diagonal entry, so every entry of a row from t on lies in
    the trailing block.  The elimination keeps no V: V is the identity
    with the logged column operations replayed, so unimodular.

    Checked on every call, on sparse rows: D equal to A @ V with the
    logged row operations replayed (hence D = E @ A @ V with E
    unimodular; a column operation that does not do what it logs fails
    here), and D diagonal with its nonzero entries in a divisibility
    chain.
    """
    rows, columns = _lines(rows, cols)
    a = [dict(row) for row in rows]  # A, kept for the check of D
    r, c = len(a), cols
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
            _swap(rows, columns, row_log, t, pivot[0])
        if pivot[1] != t:
            _swap(columns, rows, col_log, t, pivot[1])

        p = rows[t][t]
        dirty = False
        for i in sorted(columns[t]):
            if i > t:
                _add(rows, columns, row_log, i, t, -(rows[i][t] // p))
                dirty = dirty or t in rows[i]
        for j in sorted(rows[t]):
            if j > t:
                _add(columns, rows, col_log, j, t, -(rows[t][j] // p))
                dirty = dirty or j in rows[t]
        if dirty:
            continue

        # enforce the divisibility chain before moving on; every integer
        # is divisible by a unit pivot, so only a larger one needs the scan
        offender = None if abs(p) == 1 else next(
            (i for i in range(t + 1, r) if any(x % p for x in rows[i].values())), None)
        if offender is not None:
            _add(rows, columns, row_log, t, offender, 1)
            continue

        if p < 0:
            _negate(rows, columns, row_log, t)
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
