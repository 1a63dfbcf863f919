"""Exact linear algebra over the rationals with fraction-free elimination.

Forward elimination follows Bareiss: rows are cleared to primitive integer
vectors and the classic two-by-two update divided by the previous pivot keeps
every intermediate entry an integer minor of the input.  Only the final
normalisation to unit pivots reintroduces fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Row = tuple[Fraction, ...]


def _primitive_int_row(row: Sequence, ncols: int) -> list[int]:
    vals = [Fraction(x) for x in row]
    if len(vals) != ncols:
        raise ValueError("row length does not match column count")
    den = 1
    for x in vals:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vals]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _forward_eliminate(work: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """In-place fraction-free echelon reduction; returns pivot columns and swap sign."""
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    nrows = len(work)
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if work[i][c]), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            sign = -sign
        piv_row = work[r]
        piv = piv_row[c]
        for i in range(r + 1, nrows):
            row = work[i]
            f = row[c]
            work[i] = [(piv * row[k] - f * piv_row[k]) // prev for k in range(ncols)]
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, sign


def rref(rows: Iterable[Sequence], ncols: int) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form with unit pivots on the leftmost columns.

    Zero rows are dropped; returns (rows, pivot column indices).
    """
    work = [_primitive_int_row(r, ncols) for r in rows]
    work = [r for r in work if any(r)]
    pivots, _ = _forward_eliminate(work, ncols)
    t = len(pivots)
    reduced = [[Fraction(x) for x in row] for row in work[:t]]
    for i in reversed(range(t)):
        c = pivots[i]
        piv = reduced[i][c]
        reduced[i] = [x / piv for x in reduced[i]]
        for j in range(i):
            f = reduced[j][c]
            if f:
                reduced[j] = [a - f * b for a, b in zip(reduced[j], reduced[i])]
    return tuple(tuple(r) for r in reduced), tuple(pivots)


def rank(rows: Iterable[Sequence], ncols: int) -> int:
    work = [_primitive_int_row(r, ncols) for r in rows]
    work = [r for r in work if any(r)]
    return len(_forward_eliminate(work, ncols)[0])


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    work: list[list[int]] = []
    for row in rows:
        vals = [Fraction(x) for x in row]
        den = 1
        for x in vals:
            den = den * x.denominator // gcd(den, x.denominator)
        work.append([int(x * den) for x in vals])
        scale *= den
    pivots, sign = _forward_eliminate(work, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1]) / scale


def kernel(rows: Iterable[Sequence], ncols: int) -> list[Row]:
    """Basis of the right null space, one vector per free column."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    """Matrix product with exact entries."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("matrix shapes do not match")
    cols = len(b[0]) if inner else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for row in a
    )


def identity(n: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
