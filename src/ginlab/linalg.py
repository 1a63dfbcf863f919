"""Exact linear algebra over the rationals with fraction-free elimination.

Entries are rationals (`int` or `Fraction`).  Each input row is scaled to a
primitive integer vector, and from there all arithmetic is on Python ints.
Forward elimination follows Bareiss: the two-by-two update divided by the
previous pivot keeps every intermediate entry an integer minor of the input.
Back-substitution stays fraction-free too: each echelon row, divided by its
content, clears its pivot column from the rows above by integer
cross-multiplication.  Fractions appear only when `rref` writes its output,
one per nonzero entry, and once at the return of `det`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Row = tuple[Fraction, ...]

_ZERO = Fraction(0)


def primitive_int_row(row: Sequence, ncols: int) -> tuple[list[int], int, int]:
    """Primitive integer row v, content g (0 for a zero row) and denominator den: row == g/den * v."""
    if len(row) != ncols:
        raise ValueError("row length does not match column count")
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, g, den


def _integer_rows(rows: Iterable[Sequence], ncols: int) -> list[list[int]]:
    """The nonzero rows as primitive integer vectors; they span the same space."""
    work = [primitive_int_row(r, ncols)[0] for r in rows]
    return [r for r in work if any(r)]


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
            work[i] = [(piv * x - f * y) // prev for x, y in zip(row, piv_row)]
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, sign


def _back_substitute(work: list[list[int]], pivots: Sequence[int]) -> None:
    """Integer Gauss-Jordan on echelon rows, in place, from the last pivot row up.

    Afterwards row i is the primitive integer row with positive pivot on the
    line of RREF row i, and is zero in every other pivot column.  When row i is
    reached the rows below have cleared their pivot columns from it, so its
    content division already gives that row; it then clears column c_i from
    the rows above by cross-multiplication.
    """
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        row = work[i]
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        if g != 1:
            row = work[i] = [v // g for v in row]
        piv = row[c]
        for j in range(i):
            above = work[j]
            f = above[c]
            if f:
                h = gcd(piv, f)
                a, b = piv // h, f // h
                work[j] = [a * x - b * y for x, y in zip(above, row)]


def rref(rows: Iterable[Sequence], ncols: int) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form with unit pivots on the leftmost columns.

    Zero rows are dropped; returns (rows, pivot column indices).
    """
    work = _integer_rows(rows, ncols)
    pivots, _ = _forward_eliminate(work, ncols)
    _back_substitute(work, pivots)
    reduced = tuple(
        tuple(Fraction(v, row[c]) if v else _ZERO for v in row)
        for row, c in zip(work, pivots)
    )
    return reduced, tuple(pivots)


def rank(rows: Iterable[Sequence], ncols: int) -> int:
    work = _integer_rows(rows, ncols)
    return len(_forward_eliminate(work, ncols)[0])


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    content = den = 1
    work: list[list[int]] = []
    for row in rows:
        ints, g, q = primitive_int_row(row, n)
        work.append(ints)
        content *= g
        den *= q
    pivots, sign = _forward_eliminate(work, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * work[n - 1][n - 1] * content, den)


def kernel(rows: Iterable[Sequence], ncols: int) -> list[Row]:
    """Basis of the right null space of an int or Fraction matrix, one vector per free column."""
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
