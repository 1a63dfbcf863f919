from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginlab.cli import run_hilb_info
from ginlab.groebner import Ideal
from ginlab.hilbert import (
    _MAX_EXPANSION_TERMS,
    HilbertPolynomial,
    _numerator,
    MacaulayRep,
    NotAdmissible,
    RevlexLemmaReport,
    _choose,
    binomial_poly,
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    hilbert_polynomial_of_monomial_ideal,
    lex_segment_ideal,
    macaulay_rep,
    parse_hilbert_polynomial,
    revlex_lemma_check,
)
from ginlab.monideal import MonomialIdeal, saturate
from ginlab.orders import GrevLex, Lex, RingContext, mul
from ginlab.parsing import ParseError, parse_polynomial
from ginlab.poly import Polynomial
from oracles import (
    CoefficientHilbertPolynomial,
    fraction_binomial_poly,
    fraction_choose,
    fraction_h_vector_sum,
    fraction_macaulay_rep,
    hilbert_polynomial_str,
    initialized_hilbert_polynomial,
    leading,
    macaulay_polynomial,
    monomial_ideal,
    term_polynomial_str,
)

CTX2 = RingContext(2, GrevLex())
CTX3 = RingContext(3, GrevLex())


def p(text, nvars=3):
    return parse_polynomial(text, nvars)


def hp(text):
    return parse_hilbert_polynomial(text)


def hypersurface_hp(n, d):
    return binomial_poly(n, n) - binomial_poly(n - d, n)


def segment_oracle(ctx, P):
    """L(P) the long way: saturate the first q lex monomials of degree m0.

    m0 is the Gotzmann number and q = dim S_m0 - P(m0); raises the same
    "needs more variables" ValueError when q < 0 or the round trip fails.
    """
    m0 = gotzmann_number(P)
    if m0 == 0:
        return {(0,) * ctx.nvars}
    q = ctx.dim(m0) - int(P(m0))
    if q < 0:
        raise ValueError(f"{P} needs more variables than the ambient ring provides")
    # exponent tuples compare in lex order
    segment = sorted(ctx.monomials(m0), reverse=True)[:q]
    M = saturate(MonomialIdeal(ctx.nvars, frozenset(segment)))
    if hilbert_polynomial_of_monomial_ideal(ctx, M) != P:
        raise ValueError(f"{P} needs more variables than the ambient ring provides")
    return set(M.min_gens)


def closed_form(ctx, P):
    return {leading(ctx, g)[0] for g in lex_segment_ideal(ctx, P).generators}


def outcome(build, ctx, P):
    """The generators build(ctx, P) returns, or the ValueError message it raises."""
    try:
        return build(ctx, P)
    except ValueError as exc:
        return str(exc)


class TestHilbertFunction:
    def test_conic_counts(self):
        M = monomial_ideal(3, [(0, 2, 0)])
        for m in range(7):
            assert hilbert_function(CTX2, M, m) == 2 * m + 1

    def test_full_ring(self):
        for m in range(5):
            assert hilbert_function(CTX2, MonomialIdeal(3, frozenset()), m) == CTX2.dim(m)

    def test_unit_ideal(self):
        M = monomial_ideal(3, [(0, 0, 0)])
        assert hilbert_function(CTX2, M, 3) == 0


class TestHilbertPolynomial:
    def test_hypersurface_formula(self):
        # quoted degree-d hypersurface polynomial C(n+m,m) - C(n+m-d,m-d)
        for n, d in [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
            ctx = RingContext(n, GrevLex())
            f_text = {1: "x0", 2: "x0*x2 - x1^2", 3: "x0^3 + x1^3 + x2^3 - 3*x0*x1*x2"}[d]
            f = parse_polynomial(f_text, ctx.nvars)
            assert hilbert_polynomial(ctx, Ideal([f])) == hypersurface_hp(n, d)

    def test_conic_value(self):
        assert hilbert_polynomial(CTX2, Ideal([p("x0*x2 - x1^2")])) == hp("2*m + 1")

    def test_single_point(self):
        assert hilbert_polynomial(CTX2, Ideal([p("x0"), p("x1")])) == hp("1")

    def test_zero_ideal(self):
        assert hilbert_polynomial(CTX2, Ideal([])) == binomial_poly(2, 2)

    @pytest.mark.parametrize("a, b, value", [(9, 9, 81), (9, 10, 90), (10, 10, 100)])
    def test_plane_complete_intersection(self, a, b, value):
        # (x0^a, x1^b) in P^2 has Hilbert function ab only from degree a + b - 2 on
        M = monomial_ideal(3, [(a, 0, 0), (0, b, 0)])
        assert hilbert_polynomial_of_monomial_ideal(CTX2, M) == HilbertPolynomial.constant(value)
        I = Ideal([p(f"x0^{a}"), p(f"x1^{b}")])
        assert hilbert_polynomial(CTX2, I) == HilbertPolynomial.constant(value)


# zeros, +-1, other integers and rationals, then up to two trailing zeros
coefficient_lists = st.tuples(
    st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9),
                       st.fractions(-5, 5, max_denominator=7)), max_size=5),
    st.integers(0, 2),
).map(lambda drawn: drawn[0] + [0] * drawn[1])
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


def assert_matches_oracle(new, old):
    """A `HilbertPolynomial` (not a bare `Polynomial`, which prints x0) with the oracle's terms and text."""
    assert type(new) is HilbertPolynomial
    assert new.terms == {(p,): c for p, c in enumerate(old.coeffs) if c}
    assert str(new) == str(old)


@settings(max_examples=300, deadline=None)
@given(coefficient_lists, coefficient_lists, scalars, st.integers(0, 4))
@example([1, Fraction(1, 2)], [1, Fraction(1, 2), 0], 0, 0)
@example([], [0, 0], Fraction(-1, 2), 3)
def test_arithmetic_matches_coefficient_oracle(a, b, c, k):
    P, Q = HilbertPolynomial.make(a), HilbertPolynomial.make(b)
    OP, OQ = CoefficientHilbertPolynomial.make(a), CoefficientHilbertPolynomial.make(b)
    pairs = [(P, OP), (Q, OQ), (P + Q, OP + OQ), (P - Q, OP - OQ), (P * Q, OP * OQ),
             (-P, -OP), (c * P, c * OP), (P * c, OP * c), (P**k, OP**k)]
    for new, old in pairs:
        assert_matches_oracle(new, old)
    for m in range(-3, 6):
        assert type(P(m)) is Fraction and P(m) == OP(m)
    assert (P == Q) == (OP == OQ)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=5), st.integers(1, 6))
@example([], 1)
@example([0, 0], 3)
@example([7], 1)
@example([-4], 6)
@example([0, 1], 1)
@example([0, -2], 2)
@example([1, -1, 0, 0, -1], 1)
@example([3, 0, -6], 6)
@example([2, 0, 0, 0, 5], 5)
def test_make_and_printer_match_the_old_ones(numerators, den):
    """`make` and `polynomial_str` against the constructor and printer they replaced."""
    P = HilbertPolynomial.make(numerators, den)
    coeffs = [Fraction(c, den) for c in numerators]
    old = initialized_hilbert_polynomial(coeffs)
    assert type(P) is HilbertPolynomial and P.terms == old.terms
    assert all(type(c) is Fraction for c in P.terms.values())
    assert HilbertPolynomial.make(coeffs).terms == old.terms
    assert str(P) == repr(P) == hilbert_polynomial_str(P)
    assert parse_hilbert_polynomial(str(P)) == P


def test_integer_binomials_match_choose_and_comb():
    for s in range(-20, 21):
        for k in range(13):
            B = binomial_poly(s, k)
            assert type(B) is HilbertPolynomial
            assert B == _choose(HilbertPolynomial.make([s, 1]), k)
            assert B == fraction_binomial_poly(s, k)
            for m in range(-s, 13):  # where m + s >= 0
                assert B(m) == comb(m + s, k)


def count_standard_monomials(ctx, M, m):
    """Brute-force oracle: the degree-m monomials outside M."""
    return sum(1 for u in ctx.monomials(m) if not M.contains(u))


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * (n + 1)), max_size=6))
    return RingContext(n, GrevLex()), monomial_ideal(n + 1, gens)


class TestAgainstCounting:
    @settings(deadline=None)
    @given(monomial_ideals())
    @example((CTX2, MonomialIdeal(3, frozenset())))
    @example((CTX2, monomial_ideal(3, [(0, 0, 0)])))
    def test_series_matches_counting(self, drawn):
        ctx, M = drawn
        for m in range(31):
            assert hilbert_function(ctx, M, m) == count_standard_monomials(ctx, M, m)
        past = sum(sum(g) for g in M.min_gens) + 1
        P = hilbert_polynomial_of_monomial_ideal(ctx, M)
        assert P(past) == count_standard_monomials(ctx, M, past)


def dense_sum_oracle(ctx, M):
    """Hilbert polynomial as sum_j K_j C(m - j + n, n): one degree-n binomial per K_j."""
    K = _numerator(M.min_gens)
    terms = (c * binomial_poly(ctx.n - j, ctx.n) for j, c in enumerate(K) if c)
    return sum(terms, HilbertPolynomial.zero())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 5)] * (n + 1)), max_size=7)
)))
def test_h_vector_matches_dense_sum(drawn):
    n, gens = drawn
    ctx, M = RingContext(n, GrevLex()), monomial_ideal(n + 1, gens)
    assert hilbert_polynomial_of_monomial_ideal(ctx, M) == dense_sum_oracle(ctx, M)


def macaulay_rep_per_term(P):
    """The greedy Gotzmann expansion, subtracting one binomial C(m+a_i-i+1, a_i) per term.

    `macaulay_rep` subtracts each run of equal a_i in one telescoped step;
    this loop, the one it replaces, is kept here as its oracle.
    """
    a = []
    remainder = P
    i = 1
    while remainder:
        d = remainder.degree()
        lead = remainder.terms[(d,)]
        if lead < 0:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        block = lead * factorial(d)
        if block.denominator != 1:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        if i + int(block) > _MAX_EXPANSION_TERMS:
            raise ValueError(f"Gotzmann expansion of {P} exceeds {_MAX_EXPANSION_TERMS} terms")
        if d == 0:
            a.extend([0] * int(block))
            break
        a.append(d)
        remainder = remainder - binomial_poly(d - i + 1, d)
        i += 1
    return MacaulayRep(tuple(a))


def expansion_outcome(expand, P):
    """The exponents expand(P) returns, or the type and message of what it raises."""
    try:
        return expand(P).a
    except ValueError as exc:
        return type(exc), str(exc)


# admissible polynomials from drawn exponents, plus a small perturbation that
# may leave them admissible, make them inadmissible or give them more terms
expansion_inputs = st.builds(
    lambda a, extra: macaulay_polynomial(MacaulayRep(tuple(sorted(a, reverse=True))))
    + HilbertPolynomial.make(extra),
    st.lists(st.integers(0, 3), max_size=12),
    st.lists(st.fractions(-3, 3, max_denominator=6), max_size=3),
)


class TestGotzmann:
    @settings(max_examples=300, deadline=None)
    @given(expansion_inputs)
    @example(HilbertPolynomial.make([0, Fraction(1, 2), Fraction(1, 2)]))
    @example(HilbertPolynomial.make([-1, 3]))
    @example(HilbertPolynomial.make([0, 0, 600]))
    def test_block_steps_match_per_term_oracle(self, P):
        assert expansion_outcome(macaulay_rep, P) == expansion_outcome(macaulay_rep_per_term, P)

    def test_hypersurface_gotzmann_is_degree(self):
        for n in (2, 3, 4):
            for d in (1, 2, 3, 4):
                assert gotzmann_number(hypersurface_hp(n, d)) == d

    def test_constant_expansion(self):
        for c in range(7):
            P = HilbertPolynomial.constant(c)
            assert gotzmann_number(P) == c
            assert macaulay_rep(P).a == (0,) * c

    def test_conic_is_two(self):
        assert gotzmann_number(hp("2*m + 1")) == 2

    def test_3m_plus_1_expansion(self):
        rep = macaulay_rep(hp("3*m + 1"))
        assert rep.a == (1, 1, 1, 0)
        assert rep.gotzmann == 4

    def test_round_trip_symbolic(self):
        for text in ("2*m + 1", "3*m + 1", "4", "m + 1"):
            P = hp(text)
            assert macaulay_polynomial(macaulay_rep(P)) == P

    def test_admissibility(self):
        macaulay_rep(hp("2*m + 1"))
        macaulay_rep(hp("3*m + 1"))
        for text in ("-m", "m^2"):
            with pytest.raises(NotAdmissible):
                macaulay_rep(hp(text))


class TestIntegerKernel:
    """C(f, k), the h-vector sum and the Gotzmann expansion on ints, against their `Fraction` oracles."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1, max_size=4),
           st.integers(0, 12))
    @example([Fraction(0)], 3)
    @example([Fraction(0), Fraction(1, 2), Fraction(1, 2)], 2)
    @example([Fraction(-3, 2), Fraction(5, 6), Fraction(0), Fraction(-1, 4)], 12)
    def test_choose_matches_fraction_products(self, coeffs, k):
        top = HilbertPolynomial.make(coeffs)
        assert _choose(top, k) == fraction_choose(top, k)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[st.integers(0, 4)] * (n + 1)), max_size=6)
    )))
    @example((4, []))
    @example((1, [(0, 0)]))
    def test_h_vector_matches_fraction_sum(self, drawn):
        n, gens = drawn
        ctx, M = RingContext(n, GrevLex()), monomial_ideal(n + 1, gens)
        assert hilbert_polynomial_of_monomial_ideal(ctx, M) == fraction_h_vector_sum(ctx, M)

    # sums of drawn multiples of C(m + s, k), some with a negative lead, with a
    # rational perturbation that may leave them admissible or not
    binomial_sums = st.builds(
        lambda parts, extra: sum((c * binomial_poly(s, k) for c, s, k in parts),
                                 HilbertPolynomial.make(extra)),
        st.lists(st.tuples(st.integers(-2, 4), st.integers(-6, 6), st.integers(0, 4)), max_size=4),
        st.lists(st.fractions(-3, 3, max_denominator=6), max_size=3),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(binomial_sums, expansion_inputs))
    @example(HilbertPolynomial.make([0, 400000]))
    @example(HilbertPolynomial.make([0, Fraction(1, 2), Fraction(1, 2)]))
    @example(HilbertPolynomial.make([5, -1]))
    @example(HilbertPolynomial.make([0, 0, Fraction(-1, 2)]))
    @example(HilbertPolynomial.make([500000]))
    @example(HilbertPolynomial.make([-1]))
    def test_gotzmann_matches_fraction_oracle(self, P):
        assert expansion_outcome(macaulay_rep, P) == expansion_outcome(fraction_macaulay_rep, P)


class TestLexSegmentIdeal:
    def gens(self, I):
        # the generators are monomials
        return {e for g in I.generators for e in g.terms}

    def test_conic_polynomial(self):
        assert self.gens(lex_segment_ideal(CTX2, hp("2*m + 1"))) == {(2, 0, 0)}

    def test_one_point(self):
        assert self.gens(lex_segment_ideal(CTX2, hp("1"))) == {(1, 0, 0), (0, 1, 0)}

    def test_hyperplane(self):
        assert self.gens(lex_segment_ideal(CTX2, hypersurface_hp(2, 1))) == {(1, 0, 0)}

    def test_3m_plus_1(self):
        # top two lex monomials of degree 4 generate a saturated ideal already
        assert self.gens(lex_segment_ideal(CTX2, hp("3*m + 1"))) == {
            (4, 0, 0),
            (3, 1, 0),
        }

    def test_catalog_round_trip(self):
        catalog = [hypersurface_hp(n, d) for n in (2, 3) for d in (1, 2, 3, 4)]
        catalog += [HilbertPolynomial.constant(c) for c in range(1, 7)]
        catalog.append(hp("3*m + 1"))
        for P in catalog:
            for ctx in (CTX2, CTX3):
                try:
                    L = lex_segment_ideal(ctx, P)
                except ValueError:
                    continue
                assert hilbert_polynomial(ctx, L) == P
                break
            else:
                pytest.fail(f"no ambient ring accommodated {P}")

    @pytest.mark.parametrize(
        "n, P",
        [(n, HilbertPolynomial.constant(c)) for n in (2, 3) for c in (1, 2, 5, 9)]
        + [(2, hp("2*m + 1")), (2, hp("3*m + 1")), (3, hp("4*m")), (3, hp("6*m - 3"))]
        + [(3, hypersurface_hp(3, 3)), (4, hypersurface_hp(4, 2))],
    )
    def test_segment_matches_minimalized_path(self, n, P):
        ctx = RingContext(n, GrevLex())
        assert closed_form(ctx, P) == segment_oracle(ctx, P)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        a=st.lists(st.integers(0, 3), max_size=8).map(lambda a: tuple(sorted(a, reverse=True))),
    )
    def test_closed_form_matches_segment_oracle(self, n, a):
        ctx = RingContext(n, GrevLex())
        P = macaulay_polynomial(MacaulayRep(a))
        assert macaulay_rep(P).a == a
        assert outcome(closed_form, ctx, P) == outcome(segment_oracle, ctx, P)

    # every admissible P of hilb-info's benchmark grid: the constants, 6m - 3,
    # each curve a*m + b its draw can pick (Gotzmann number g, a at most the
    # family's bound) and the hypersurfaces; then P = 0, the unit ideal, and
    # P = C(m+n, n), the zero ideal
    BENCHMARK_GRID = (
        [(2, HilbertPolynomial.constant(c)) for c in range(21)]
        + [(3, HilbertPolynomial.constant(c)) for c in range(11)]
        + [(3, hp("6*m - 3"))]
        + [(n, HilbertPolynomial.make([g - a + 1 - comb(a - 1, 2), a]))
           for n, max_g, max_a in ((3, 7, 4), (4, 5, 3))
           for g in range(1, max_g + 1) for a in range(1, min(g, max_a) + 1)]
        + [(n, hypersurface_hp(n, d)) for n, max_d in ((2, 6), (3, 6), (4, 4))
           for d in range(1, max_d + 1)]
        + [(n, binomial_poly(n, n)) for n in (2, 3, 4)]
    )

    @pytest.mark.parametrize("n, P", BENCHMARK_GRID)
    def test_benchmark_grid_prints_as_the_old_path(self, n, P):
        # the old path: an `Ideal` of monomial `Polynomial`s, printed a term at a time
        ctx = RingContext(n, GrevLex())
        L = lex_segment_ideal(ctx, P)
        assert type(L) is Ideal
        gens = ctx.descending(segment_oracle(ctx, P))
        assert L.generators == tuple(Polynomial({g: 1}) for g in gens)
        report, code = run_hilb_info(ctx, P, str(P))
        assert code == 0
        assert report["lex_ideal"] == [term_polynomial_str(g, ctx) for g in L.generators]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_ring_polynomial_is_the_zero_ideal(self, n):
        ctx = RingContext(n, GrevLex())
        P = binomial_poly(n, n)
        assert macaulay_rep(P).a == (n,)
        assert lex_segment_ideal(ctx, P).generators == ()
        assert segment_oracle(ctx, P) == set()

    def test_needs_more_variables(self):
        ctx1 = RingContext(1, GrevLex())
        with pytest.raises(ValueError, match="needs more variables"):
            lex_segment_ideal(ctx1, hp("2*m + 1"))
        # a_1 = n with more than one term: C(m+2,2) + C(m+1,2) in P^2
        with pytest.raises(ValueError, match="needs more variables"):
            lex_segment_ideal(CTX2, macaulay_polynomial(MacaulayRep((2, 2))))


def revlex_lemma_by_products(ctx, m, count, l):
    """The replaced product-set form of `revlex_lemma_check`, kept as its oracle."""
    grevlex = RingContext(ctx.n, GrevLex())
    segment = grevlex.top_segment(m, count)
    corner = tuple(m if i == ctx.n - 1 else 0 for i in range(ctx.nvars))
    contains_corner = corner in set(segment)
    products = {mul(u, v) for u in ctx.monomials(l) for v in segment}
    is_segment_after = products == set(grevlex.top_segment(m + l, len(products)))
    codim_before = ctx.dim(m) - count
    codim_after = ctx.dim(m + l) - len(products)
    return RevlexLemmaReport(
        is_segment_after=is_segment_after,
        codim_before=codim_before,
        codim_after=codim_after,
        contains_corner=contains_corner,
        lemma_consistent=(count == 0 or is_segment_after == contains_corner)
        and (not contains_corner or codim_before == codim_after),
    )


class TestRevlexSegments:
    def test_basic_segment(self):
        assert CTX2.top_segment(2, 3) == ((2, 0, 0), (1, 1, 0), (0, 2, 0))

    def test_empty_and_full(self):
        assert CTX2.top_segment(2, 0) == ()
        assert len(CTX2.top_segment(2, 6)) == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            CTX2.top_segment(2, 7)

    def test_lemma_check_consistent_segment(self):
        report = revlex_lemma_check(CTX2, 2, 3, 1)
        assert report.is_segment_after
        assert report.codim_before == report.codim_after == 3
        assert report.lemma_consistent

    def test_lemma_check_broken_segment(self):
        # S_1 * {x0^2, x0*x1} misses x1^3, and indeed x1^2 is not in the segment
        report = revlex_lemma_check(CTX2, 2, 2, 1)
        assert not report.is_segment_after
        assert not report.contains_corner
        assert report.lemma_consistent

    def test_lemma_check_full_space(self):
        report = revlex_lemma_check(CTX2, 2, 6, 1)
        assert report.is_segment_after
        assert report.lemma_consistent

    def test_exhaustive_small(self):
        for n in (1, 2):
            ctx = RingContext(n, GrevLex())
            for m in (1, 2, 3):
                for count in range(ctx.dim(m) + 1):
                    for l in (1, 2):
                        assert revlex_lemma_check(ctx, m, count, l).lemma_consistent

    @pytest.mark.parametrize("order", [GrevLex(), Lex()])
    def test_matches_product_set_oracle(self, order):
        # every segment for n <= 3, m <= 4, l <= 3
        for n in (1, 2, 3):
            ctx = RingContext(n, order)
            for m in range(5):
                for count in range(ctx.dim(m) + 1):
                    for l in (1, 2, 3):
                        expected = revlex_lemma_by_products(ctx, m, count, l)
                        assert revlex_lemma_check(ctx, m, count, l) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_product_set_oracle_up_to_the_guard(self, data):
        # the guard's range: n <= 4, m <= 6, l <= 6, any segment size
        ctx = RingContext(data.draw(st.integers(1, 4)), GrevLex())
        m = data.draw(st.integers(0, 6))
        count = data.draw(st.integers(0, ctx.dim(m)))
        l = data.draw(st.integers(1, 6))
        assert revlex_lemma_check(ctx, m, count, l) == revlex_lemma_by_products(ctx, m, count, l)

    def test_size_and_degree_errors(self):
        with pytest.raises(ValueError, match=r"index size 7 out of range 0..6"):
            revlex_lemma_check(CTX2, 2, 7, 1)
        with pytest.raises(ValueError, match=r"index size -1 out of range 0..6"):
            revlex_lemma_check(CTX2, 2, -1, 1)
        with pytest.raises(ValueError, match="l must be at least 1"):
            revlex_lemma_check(CTX2, 2, 7, 0)

    def test_constant_codimension_corollary(self):
        # segments containing the corner power keep their codimension at l = 0, 1, 2
        for n in (1, 2, 3):
            ctx = RingContext(n, GrevLex())
            m = 3
            for count in range(ctx.dim(m) + 1):
                segment = ctx.top_segment(m, count)
                corner = tuple(m if i == n - 1 else 0 for i in range(n + 1))
                if corner not in segment:
                    continue
                codims = {ctx.dim(m) - count}
                for l in (1, 2):
                    codims.add(revlex_lemma_check(ctx, m, count, l).codim_after)
                assert len(codims) == 1


class TestHilbertExpressionParser:
    def test_binomial_basis(self):
        assert hp("C(m+2,2) - C(m,2)") == hp("2*m + 1")

    def test_choose_with_polynomial_bottom(self):
        assert hp("C(m+2,m)") == binomial_poly(2, 2)

    def test_negative_shift(self):
        assert hp("C(m-1,1)") == hp("m - 1")

    def test_power(self):
        assert hp("m^2 + 2*m + 1") == hp("(m+1)^2")

    def test_rational_coefficients(self):
        assert hp("1/2*m^2 + 3/2*m + 1") == binomial_poly(2, 2)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            hp("2*m +")
        with pytest.raises(ParseError):
            hp("C(m^2, 2) + C(m, m^2)")

    def test_str_round_trip(self):
        for text in ("2*m + 1", "3*m + 1", "1", "m^2 - m", "-m"):
            P = hp(text)
            assert hp(str(P)) == P

    @pytest.mark.parametrize(
        "text", ["m^101", "(m^2)^51", "2^101", "C(m,101)", "C(m^2,51)", "C(m+101,m)", "m^20000"]
    )
    def test_input_degree_limit(self, text):
        with pytest.raises(ValueError, match="input degree limit 100"):
            hp(text)

    def test_input_degree_limit_is_inclusive(self):
        assert hp("m^100").degree() == 100
        assert hp("(m^2)^50").degree() == 100
        assert hp("C(m,100)") == binomial_poly(0, 100)
        assert hp("C(m^2,50)").degree() == 100

    def test_internal_binomials_are_not_limited(self):
        assert binomial_poly(0, 150).degree() == 150
