import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginlab import linalg
from ginlab.poly import LinearChange
from oracles import identity, mat_mul


def naive_rref(rows, ncols):
    """Plain Gauss-Jordan over Fraction: the oracle for the fraction-free path."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        piv = mat[r][c]
        mat[r] = [x / piv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def perm_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        prod = Fraction(perm_sign(perm))
        for i, j in enumerate(perm):
            prod *= Fraction(rows[i][j])
        total += prod
    return total


def random_matrix(rng, nrows, ncols, bound=6, fractions=False):
    def entry():
        if fractions:
            return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
        return Fraction(rng.randint(-bound, bound))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def test_rref_matches_naive_gauss():
    rng = random.Random(37)
    for trial in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        mat = random_matrix(rng, nrows, ncols, fractions=(trial % 2 == 0))
        if trial % 5 == 0 and nrows > 1:
            mat[-1] = mat[0][:]  # force rank deficiency
        got_rows, got_pivots = linalg.rref(mat, ncols)
        want_rows, want_pivots = naive_rref(mat, ncols)
        assert got_pivots == want_pivots
        assert got_rows == want_rows


def test_rref_stress_structured_matrices():
    # zero columns, duplicated columns and proportional rows exercise the
    # skipped-pivot paths of the fraction-free elimination
    rng = random.Random(77)
    for _ in range(60):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(2, 8)
        mat = random_matrix(rng, nrows, ncols, bound=4)
        zero_col = rng.randrange(ncols)
        for row in mat:
            row[zero_col] = Fraction(0)
        if ncols >= 2:
            src = rng.randrange(ncols)
            dst = rng.randrange(ncols)
            for row in mat:
                row[dst] = row[src]
        if nrows >= 2:
            mat[-1] = [x * Fraction(3, 2) for x in mat[0]]
        got = linalg.rref(mat, ncols)
        want = naive_rref(mat, ncols)
        assert got == want


def test_rref_is_canonical():
    rng = random.Random(5)
    mat = random_matrix(rng, 4, 6)
    rows, pivots = linalg.rref(mat, 6)
    assert list(pivots) == sorted(pivots)
    for i, c in enumerate(pivots):
        assert rows[i][c] == 1
        for j in range(len(rows)):
            if j != i:
                assert rows[j][c] == 0


big_entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60),
)


@st.composite
def matrices(draw):
    """Dense or banded matrices up to 12 x 30 with zero and dependent rows.

    Banded rows are shifted copies of one row, the shape of a graded piece
    spanned by the monomial multiples of one form.
    """
    ncols = draw(st.integers(1, 30))
    values = draw(st.sampled_from([st.integers(-3, 3), big_entries]))
    if draw(st.booleans()):
        width = draw(st.integers(1, ncols))
        band = draw(st.lists(values, min_size=width, max_size=width))
        shifts = range(min(ncols - width + 1, 10))
        rows = [[0] * s + band + [0] * (ncols - width - s) for s in shifts]
    else:
        nrows = draw(st.integers(0, 10))
        rows = [draw(st.lists(values, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            k = draw(st.fractions(-3, 3, max_denominator=4))
            rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
        else:
            rows.append([0] * ncols)
    return draw(st.permutations(rows)), ncols


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_naive_gauss_property(case):
    mat, ncols = case
    reduced, pivots = linalg.rref(mat, ncols)
    assert (reduced, pivots) == naive_rref(mat, ncols)

    # The integer back-substitution leaves each RREF line as its primitive
    # integer row with a positive pivot.
    work = linalg._integer_rows(mat, ncols)
    linalg._forward_eliminate(work, ncols)
    linalg._back_substitute(work, pivots)
    for row, c, want in zip(work, pivots, reduced):
        assert row[c] > 0 and gcd(*row) == 1
        assert tuple(Fraction(v, row[c]) for v in row) == want

    basis = linalg.kernel(mat, ncols)
    assert len(basis) == ncols - len(pivots)
    for v in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert linalg.rank(basis, ncols) == len(basis)


def test_det_matches_permanent_expansion():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            mat = random_matrix(rng, n, n, fractions=True)
            assert linalg.det(mat) == perm_det(mat)


def test_det_singular_and_identity():
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det(identity(4)) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[1, 0, 2], [3, 0, 4], [5, 0, 6]]) == 0
    with pytest.raises(ValueError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


@st.composite
def square_matrices(draw):
    """Square int or rational matrices, about half made singular by a dependent row."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entry = st.integers(-4, 4)
    else:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        # one row becomes a combination of the others (the zero row when n = 1)
        k = draw(st.integers(0, n - 1))
        coeffs = draw(st.lists(entry, min_size=n, max_size=n))
        mat[k] = [sum((c * row[j] for i, (c, row) in enumerate(zip(coeffs, mat)) if i != k),
                      Fraction(0)) for j in range(n)]
    return mat


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_rank_decides_invertibility_like_det(mat):
    n = len(mat)
    invertible = linalg.det(mat) != 0
    assert (linalg.rank(mat, n) == n) == invertible
    if invertible:
        assert LinearChange(tuple(map(tuple, mat))).nvars == n
    else:
        with pytest.raises(ValueError, match="must be invertible"):
            LinearChange(tuple(map(tuple, mat)))


def test_kernel_annihilates_and_spans():
    rng = random.Random(23)
    for _ in range(15):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(2, 7)
        mat = random_matrix(rng, nrows, ncols)
        basis = linalg.kernel(mat, ncols)
        r = linalg.rank(mat, ncols)
        assert len(basis) == ncols - r
        for v in basis:
            for row in mat:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0
        if basis:
            assert linalg.rank(basis, ncols) == len(basis)


def test_mat_mul_identity():
    rng = random.Random(3)
    mat = tuple(tuple(r) for r in random_matrix(rng, 3, 3))
    assert mat_mul(mat, identity(3)) == mat
