import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_key
from ginlab import cli, families
from ginlab.families import points_hilbert_point, random_points
from ginlab.grassmann import (
    SchubertIndex,
    hilbert_point,
    pluecker_coordinate,
    subspace_from_vectors,
)
from ginlab.groebner import Ideal, initial_ideal
from ginlab.linalg import det, rank
from ginlab.monideal import saturate
from ginlab.orders import GrevLex, Lex, RingContext, WeightOrder
from ginlab.parsing import parse_polynomial
from ginlab.poly import Polynomial
from oracles import (
    ABOVE,
    BELOW,
    EQUAL,
    INCOMPARABLE,
    compare_indices,
    initial_subspace,
    leading,
    make_index,
    mat_mul,
    monomial_ideal,
    random_subspace,
    schubert_cell_index,
    subspace_from_polynomials,
)

CTX2 = RingContext(2, GrevLex())


def p(text, nvars=3):
    return parse_polynomial(text, nvars)


def conic():
    return Ideal([p("x0*x2 - x1^2")])


class TestHilbertPoint:
    def test_conic_degree_two(self):
        F = hilbert_point(CTX2, conic(), 2)
        assert F.d == 1
        assert len(F.columns) == 6

    def test_conic_degree_three_dimension(self):
        F = hilbert_point(CTX2, conic(), 3)
        assert F.d == 3
        assert len(F.columns) == 10
        # d = dim S_3 - P(3) with P = 2m + 1
        assert F.d == 10 - 7

    def test_zero_ideal(self):
        F = hilbert_point(CTX2, Ideal([]), 2)
        assert F.d == 0

    def test_dimension_consistency_along_degrees(self):
        for m in (2, 3, 4, 5):
            F = hilbert_point(CTX2, conic(), m)
            assert F.d == CTX2.dim(m) - (2 * m + 1)


class TestSubspaceFromPolynomials:
    def test_rejects_a_form_of_another_degree(self):
        with pytest.raises(ValueError):
            subspace_from_polynomials(CTX2, 2, [p("x0^2"), p("x0^2*x1")])
        with pytest.raises(ValueError):
            subspace_from_polynomials(CTX2, 2, [p("x0^2 + x1")])


def one_sample_reading(kind, n, m, sample, **size):
    """`run_degeneracy` on the one given sample (a form, given to it as its lead, or a point list).

    Returns (top coordinate nonzero, explicit_all_vanished or None), or None
    when the command refuses the sample's dimension.
    """
    if kind == "hypersurface":
        source, drawn = "random_lead", leading(RingContext(n, GrevLex()), sample)[0]
    else:
        source, drawn = "random_points", sample
    with mock.patch.object(cli, source, lambda *args: drawn):
        try:
            report, _ = cli.run_degeneracy(kind, n, m, 1, 0, **size)
        except cli.CliError:
            return None
    return report["vanished_count"] == 0, report.get("explicit_all_vanished")


def check_hypersurface_reading(ctx, d, m, f):
    """`run_degeneracy` on the form f against the pivots of its canonical degree-m matrix."""
    F = hilbert_point(ctx, Ideal([f]), m)
    top, explicit_vanished = one_sample_reading("hypersurface", ctx.n, m, f, d=d)
    assert top == (F.pivots == tuple(range(F.d)))
    free = [u for u in ctx.monomials(m) if u[ctx.n] == 0][: F.d]
    if m == d + 1 and len(free) == F.d:
        assert explicit_vanished == (pluecker_coordinate(F, SchubertIndex(tuple(free))) == 0)
    else:
        assert explicit_vanished is None


class TestDegeneracyReadings:
    """The closed-form readings of `degeneracy` against canonical matrices."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypersurface_reading_matches_hilbert_point(self, data):
        n = data.draw(st.sampled_from([2, 3, 4]))
        d = data.draw(st.integers(1, 3))
        # m < d and m = d + 1 included; below d - n the dimension check refuses
        m = data.draw(st.integers(max(0, d - n), d + 2))
        ctx = RingContext(n, GrevLex())
        coefficient = st.integers(-3, 3).filter(bool).map(Fraction)
        terms = data.draw(st.dictionaries(st.sampled_from(ctx.monomials(d)), coefficient,
                                          min_size=1, max_size=4))
        check_hypersurface_reading(ctx, d, m, Polynomial(terms))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hypersurface_reading_for_every_lead(self, n):
        # each degree-d monomial as lm(f), above a dense tail of the monomials below it
        ctx = RingContext(n, GrevLex())
        for d in (1, 2, 3):
            chain = ctx.monomials(d)
            for k in range(len(chain)):
                f = Polynomial({u: Fraction((-1) ** i * (i + 1)) for i, u in enumerate(chain[k:])})
                for m in range(max(0, d - n), d + 3):
                    check_hypersurface_reading(ctx, d, m, f)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_points_reading_matches_kernel_then_rref(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        m = data.draw(st.integers(0, 4))
        # combinations of `span` base points: 2 gives collinear sets, 3
        # coplanar ones in P^3, n + 1 points in general position
        span = data.draw(st.sampled_from(sorted({2, 3, n + 1})))
        coord = st.integers(-4, 4)
        base = data.draw(st.lists(st.tuples(*[coord] * (n + 1)), min_size=span, max_size=span))
        combos = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * span), min_size=1, max_size=8)
        )
        points = [
            tuple(sum(c * b[j] for c, b in zip(combo, base)) for j in range(n + 1))
            for combo in combos
        ]
        ctx = RingContext(n, GrevLex())
        F = points_hilbert_point(ctx, points, m)
        reading = one_sample_reading("points", n, m, points, count=len(points))
        if F.d != ctx.dim(m) - len(points):
            assert reading is None
        else:
            assert reading == (F.pivots == tuple(range(F.d)), None)

    def test_collinear_points_in_the_plane(self):
        # four points on x2 = 0 impose only three conditions on conics
        points = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)]
        assert points_hilbert_point(CTX2, points, 2).d == 3
        assert one_sample_reading("points", 2, 2, points, count=4) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.sampled_from([GrevLex(), Lex()]), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2**32))
# P^1, d = 1, bound 1: seed 0 draws one zero batch, then -1 for x0; seed 16 two, then 0 and -1
@example(1, GrevLex(), 1, 1, 0)
@example(1, GrevLex(), 1, 1, 16)
def test_random_lead_is_the_lead_of_random_form(n, order, d, bound, seed):
    ctx = RingContext(n, order)
    f = families.random_form(ctx, d, random.Random(seed), bound)
    assert families.random_lead(ctx, d, random.Random(seed), bound) == leading(ctx, f)[0]


def test_random_points_are_distinct_integer_points():
    rng = random.Random(31)
    for n, count in [(2, 3), (2, 5), (3, 6), (3, 8)]:
        ctx = RingContext(n, GrevLex())
        points = random_points(ctx, count, rng, bound=2)
        assert all(type(c) is int for pt in points for c in pt)
        assert all(any(pt) for pt in points)
        for a, b in combinations(points, 2):
            assert rank([a, b], n + 1) == 2


def point_count_by_enumeration(n, b):
    """Points of P^n with coordinates in [-b, b], as primitive vectors with a positive first entry."""
    seen = set()
    for v in product(range(-b, b + 1), repeat=n + 1):
        if any(v):
            g = gcd(*v)
            g = g if next(c for c in v if c) > 0 else -g
            seen.add(tuple(c // g for c in v))
    return len(seen)


@pytest.mark.parametrize("n, b", [(n, b) for n in (1, 2, 3) for b in (1, 2, 3, 4, 6)])
def test_point_count_matches_enumeration(n, b):
    assert families._point_count(n, b) == point_count_by_enumeration(n, b)


def test_random_points_take_every_point_of_the_box():
    ctx = RingContext(1, GrevLex())
    points = random_points(ctx, 4, random.Random(5), bound=1)
    assert all(rank([a, b], 2) == 2 for a, b in combinations(points, 2))
    with pytest.raises(ValueError, match="only 4 points"):
        random_points(ctx, 5, random.Random(5), bound=1)
    with pytest.raises(ValueError):
        random_points(ctx, 1, random.Random(5), bound=0)
    with pytest.raises(ValueError):
        families.random_form(ctx, 2, random.Random(5), bound=0)


class TestInitialSubspace:
    def test_single_row(self):
        F = hilbert_point(CTX2, conic(), 2)
        assert initial_subspace(CTX2, F).monomials == ((0, 2, 0),)

    def test_monomial_span_is_itself(self):
        polys = [p("x0^2"), p("x0*x1"), p("x1*x2")]
        F = subspace_from_polynomials(CTX2, 2, polys)
        assert initial_subspace(CTX2, F).monomials == ((2, 0, 0), (1, 1, 0), (0, 1, 1))

    def test_conic_degree_three_pivots(self):
        # pivots of the row space of {x0 f, x1 f, x2 f}; the oracle is the
        # degree-3 slice of the initial ideal (x1^2)
        F = hilbert_point(CTX2, conic(), 3)
        idx = initial_subspace(CTX2, F)
        assert idx.monomials == ((1, 2, 0), (0, 3, 0), (0, 2, 1))
        inM = initial_ideal(CTX2, conic())
        assert set(idx.monomials) == set(inM.graded_monomials(CTX2, 3))


class TestPluecker:
    def test_pivot_minor_is_one(self):
        F = hilbert_point(CTX2, conic(), 3)
        assert pluecker_coordinate(F, initial_subspace(CTX2, F)) == 1

    def test_conic_off_pivot_coordinate(self):
        F = hilbert_point(CTX2, conic(), 2)
        idx = make_index(CTX2, [(1, 0, 1)])  # the x0*x2 column
        assert pluecker_coordinate(F, idx) == -1

    def test_rank_deficient_minor_vanishes(self):
        F = hilbert_point(CTX2, conic(), 2)
        idx = make_index(CTX2, [(0, 0, 2)])  # x2^2 never appears
        assert pluecker_coordinate(F, idx) == 0

    def test_size_mismatch(self):
        F = hilbert_point(CTX2, conic(), 2)
        with pytest.raises(ValueError):
            pluecker_coordinate(F, make_index(CTX2, [(2, 0, 0), (0, 2, 0)]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_top_coordinate_is_nonzero_iff_pivots_lead(data):
    # the degeneracy report counts a vanishing top coordinate by its pivots
    n = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(1, 3))
    ctx = RingContext(n, GrevLex())
    d = data.draw(st.integers(0, ctx.dim(m)))
    zero_lead = data.draw(st.integers(0, ctx.dim(m)))
    F = random_subspace(ctx, m, d, random.Random(data.draw(st.integers(0, 10**6))))
    rows = [[0] * zero_lead + list(row[zero_lead:]) for row in F.matrix]
    F = subspace_from_vectors(ctx, m, rows)
    top = pluecker_coordinate(F, SchubertIndex(ctx.top_segment(m, F.d)))
    assert (top != 0) == (F.pivots == tuple(range(F.d)))


class TestSchubertCellIndex:
    def test_agrees_with_initial_subspace(self):
        for m in (2, 3, 4):
            F = hilbert_point(CTX2, conic(), m)
            assert schubert_cell_index(CTX2, F) == initial_subspace(CTX2, F)

    def test_generic_two_dim_in_binary_quadrics(self):
        ctx = RingContext(1, GrevLex())
        rng = random.Random(99)
        F = random_subspace(ctx, 2, 2, rng)
        assert schubert_cell_index(ctx, F).monomials == ((2, 0), (1, 1))

    def test_monomial_span(self):
        F = subspace_from_polynomials(CTX2, 2, [p("x1^2"), p("x1*x2")])
        assert schubert_cell_index(CTX2, F).monomials == ((0, 2, 0), (0, 1, 1))

    def test_pluecker_characterisation_exhaustive(self):
        # combinations(range(N), d) visits indices in descending lex order, so
        # the first nonvanishing minor is the cell index
        rng = random.Random(7)
        for n, m, d in [(1, 3, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3)]:
            ctx = RingContext(n, GrevLex())
            for _ in range(5):
                F = random_subspace(ctx, m, d, rng)
                first = None
                for pos in combinations(range(len(F.columns)), d):
                    idx = SchubertIndex(tuple(F.columns[c] for c in pos))
                    if pluecker_coordinate(F, idx) != 0:
                        first = pos
                        break
                assert first == F.pivots
                assert idx == schubert_cell_index(ctx, F)


class TestBasisInvariance:
    def test_left_multiplication_keeps_canonical_form(self):
        rng = random.Random(21)
        F = random_subspace(CTX2, 2, 3, rng)
        while True:
            g = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
            if det(g) != 0:
                break
        mixed = mat_mul(tuple(tuple(r) for r in g), F.matrix)
        G = subspace_from_vectors(CTX2, 2, mixed)
        assert G == F


class TestIndexComparisons:
    def test_single_entry(self):
        a = make_index(CTX2, [(2, 0, 0)])
        b = make_index(CTX2, [(0, 2, 0)])
        result = compare_indices(CTX2, a, b)
        assert result.lex == 1 and result.partial == ABOVE

    def test_incomparable(self):
        a = make_index(CTX2, [(2, 0, 0), (0, 1, 1)])
        b = make_index(CTX2, [(1, 1, 0), (0, 2, 0)])
        result = compare_indices(CTX2, a, b)
        assert result.lex == 1 and result.partial == INCOMPARABLE

    def test_equal(self):
        a = make_index(CTX2, [(2, 0, 0), (0, 1, 1)])
        assert compare_indices(CTX2, a, a) == (0, EQUAL)

    def test_empty_indices_equal(self):
        empty = SchubertIndex(())
        assert compare_indices(CTX2, empty, empty) == (0, EQUAL)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compare_indices(
                CTX2, make_index(CTX2, [(2, 0, 0)]), SchubertIndex(((2, 0, 0), (0, 2, 0)))
            )

    def test_strict_descent_enforced(self):
        with pytest.raises(ValueError):
            make_index(CTX2, [(0, 2, 0), (2, 0, 0)])

    def test_one_degree_enforced(self):
        # descending in grevlex, but a cell is named by monomials of one degree
        with pytest.raises(ValueError, match="one degree"):
            make_index(CTX2, [(0, 2, 0), (1, 0, 0)])


def compare_indices_oracle(ctx, a, b):
    """Position-by-position comparison loops, kept as the oracle of `compare_indices`."""
    def key(u):
        return oracle_key(ctx.order, u)

    lex = 0
    for x, y in zip(a.monomials, b.monomials):
        if x != y:
            lex = 1 if key(x) > key(y) else -1
            break
    signs = set()
    for x, y in zip(a.monomials, b.monomials):
        if x == y:
            continue
        signs.add(1 if key(x) > key(y) else -1)
    if not signs:
        partial = EQUAL
    elif signs == {1}:
        partial = ABOVE
    elif signs == {-1}:
        partial = BELOW
    else:
        partial = INCOMPARABLE
    return lex, partial


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compare_indices_matches_loop_oracle(data):
    order = data.draw(st.sampled_from([GrevLex(), Lex(), WeightOrder((1, 3, 0))]))
    ctx = RingContext(2, order)
    cols = ctx.monomials(data.draw(st.integers(0, 3)))
    d = data.draw(st.integers(0, len(cols)))

    def draw_index():
        picked = data.draw(st.sets(st.sampled_from(cols), min_size=d, max_size=d))
        return make_index(ctx, ctx.descending(picked))

    a, b = draw_index(), draw_index()
    assert compare_indices(ctx, a, b) == compare_indices_oracle(ctx, a, b)


class TestMaxIndex:
    """The largest index of d monomials of degree m is the top segment ``ctx.top_segment(m, d)``."""

    def test_degree_three_top(self):
        assert CTX2.top_segment(3, 3) == ((3, 0, 0), (2, 1, 0), (1, 2, 0))

    def test_single(self):
        assert CTX2.top_segment(4, 1) == ((4, 0, 0),)

    def test_full(self):
        assert CTX2.top_segment(2, 6) == CTX2.monomials(2)

    def test_out_of_range(self):
        for count in (-1, 7):
            with pytest.raises(ValueError, match="out of range 0..6"):
                CTX2.top_segment(2, count)


class TestIndexDeterminesInitialIdeal:
    def test_saturated_index_ideal_matches_initial_ideal(self):
        # saturating the index monomials of the Hilbert point at the Gotzmann
        # degree recovers the initial ideal of a saturated input
        I = conic()
        F = hilbert_point(CTX2, I, 2)
        idx = schubert_cell_index(CTX2, F)
        recovered = saturate(monomial_ideal(3, idx.monomials))
        assert recovered == initial_ideal(CTX2, I)
