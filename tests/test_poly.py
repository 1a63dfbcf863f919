import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ginlab.orders import GrevLex, Lex, RingContext, WeightOrder, pack_width
from ginlab.parsing import ParseError, parse_polynomial, polynomial_str
from ginlab.poly import LinearChange, Polynomial, apply_change, pack
from oracles import identity_change, mat_mul, primitive, term_polynomial_str


def p(text, nvars=3):
    return parse_polynomial(text, nvars)


def test_arithmetic_basics():
    assert p("(x0 + x1) * (x0 - x1)") == p("x0^2 - x1^2")
    assert p("x0 - x0") == Polynomial.zero()
    assert p("1/2*x0 + 1/2*x0") == p("x0")
    assert p("2*x0") * Fraction(1, 2) == p("x0")


def test_parse_rationals_and_whitespace():
    f = p("  3/2 * x1^2-x0 ")
    assert f.terms == {(0, 2, 0): Fraction(3, 2), (1, 0, 0): Fraction(-1)}


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        p("x0 + + x1")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        p("x7", nvars=3)
    with pytest.raises(ParseError):
        p("2x0")
    with pytest.raises(ParseError):
        p("x0 @ x1")


def test_polynomial_str_round_trip():
    for text in ("x0*x2 - x1^2", "2*x0^3 + 1/3*x1*x2 - 5", "-x0 + x1"):
        f = p(text)
        assert parse_polynomial(polynomial_str(f), 3) == f


@st.composite
def ringed_polynomials(draw):
    """A ring P^n, n from 1 to 4, under a drawn order, and a polynomial in it."""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * (n + 1))
    weights = st.builds(WeightOrder, st.tuples(*[st.integers(0, 3)] * (n + 1)))
    order = draw(st.one_of(st.just(GrevLex()), st.just(Lex()), weights))
    coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                             st.fractions(-5, 5, max_denominator=6))
    terms = draw(st.dictionaries(exponents, coefficients, max_size=6))
    return RingContext(n, order), Polynomial(terms)


@settings(max_examples=300, deadline=None)
@given(ringed_polynomials())
@example((RingContext(1), Polynomial.zero()))
@example((RingContext(2), Polynomial.constant(3, -5)))
@example((RingContext(2), Polynomial({(0, 0, 0): Fraction(1, 2), (0, 1, 0): -1})))
@example((RingContext(3, Lex()), Polynomial({(0, 0, 0, 1): -1, (2, 0, 0, 0): Fraction(-3, 2)})))
def test_printer_matches_the_term_printer(case):
    ctx, f = case
    assert polynomial_str(f, ctx) == term_polynomial_str(f, ctx)
    assert repr(f) == polynomial_str(f) == term_polynomial_str(f)
    assert parse_polynomial(polynomial_str(f, ctx), ctx.nvars) == f


def test_ring_free_printer_reads_grevlex():
    # repr has no ring: it prints under grevlex, one variable included
    assert repr(Polynomial({(2,): 1, (0,): -3})) == "x0^2 - 3"
    assert repr(Polynomial.zero()) == "0"
    assert repr(Polynomial({(1, 0, 2): 2, (3, 0, 0): -1, (0, 0, 0): 5})) == "-x0^3 + 2*x0*x2^2 + 5"


def test_leading_term_examples():
    grevlex = RingContext(2, GrevLex())
    assert p("x0*x2 - x1^2").leading(grevlex) == ((0, 2, 0), Fraction(-1))
    assert p("x0 + x1^3", 2).leading(RingContext(1, Lex())) == ((1, 0), Fraction(1))
    assert p("5").leading(grevlex) == ((0, 0, 0), Fraction(5))
    with pytest.raises(ValueError):
        Polynomial.zero().leading(grevlex)


def test_apply_change_identity():
    ctx = RingContext(2, GrevLex())
    g = identity_change(3)
    f = p("x0*x2 - 7*x1^2 + x2^2")
    assert apply_change(ctx, g, f) == f


def test_apply_change_elementary():
    ctx = RingContext(2, GrevLex())
    rows = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    g = LinearChange(tuple(tuple(Fraction(x) for x in r) for r in rows))
    assert apply_change(ctx, g, p("x0")) == p("x0 + x1")


def test_apply_change_swap():
    ctx = RingContext(2, GrevLex())
    rows = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    g = LinearChange(tuple(tuple(Fraction(x) for x in r) for r in rows))
    assert apply_change(ctx, g, p("x0^2")) == p("x1^2")


def _random_change(ctx, rng, bound=5, shape=None):
    nv = ctx.nvars
    while True:
        rows = [[Fraction(rng.randint(-bound, bound)) for _ in range(nv)] for _ in range(nv)]
        if shape == "upper":
            for i in range(nv):
                for j in range(i):
                    rows[i][j] = Fraction(0)
                if rows[i][i] == 0:
                    rows[i][i] = Fraction(1)
        if shape == "lower":
            for i in range(nv):
                for j in range(i + 1, nv):
                    rows[i][j] = Fraction(0)
                if rows[i][i] == 0:
                    rows[i][i] = Fraction(1)
        try:
            return LinearChange(tuple(tuple(r) for r in rows))
        except ValueError:
            continue


def test_composition_property():
    ctx = RingContext(2, GrevLex())
    rng = random.Random(7)
    f = p("x0*x2 - x1^2 + 2*x2^2")
    for _ in range(10):
        g = _random_change(ctx, rng)
        h = _random_change(ctx, rng)
        # substituting h, then g, is the change whose matrix is h.matrix * g.matrix
        gh = LinearChange(mat_mul(h.matrix, g.matrix))
        assert apply_change(ctx, gh, f) == apply_change(ctx, g, apply_change(ctx, h, f))


def test_degree_preserved_on_homogeneous_input():
    ctx = RingContext(2, GrevLex())
    rng = random.Random(11)
    f = p("x0^3 - 2*x1^2*x2")
    for _ in range(5):
        g = _random_change(ctx, rng)
        out = apply_change(ctx, g, f)
        assert out.is_homogeneous() and out.degree() == 3


def test_borel_expansion_keeps_leading_monomial():
    # an upper-triangular change sends x^a to unit * x^a plus strictly smaller terms
    rng = random.Random(13)
    for order in (GrevLex(), Lex()):
        ctx = RingContext(2, order)
        for _ in range(12):
            b = _random_change(ctx, rng, shape="upper")
            e = tuple(rng.randint(0, 3) for _ in range(3))
            f = Polynomial.monomial(e)
            out = apply_change(ctx, b, f)
            lead, coeff = out.leading(ctx)
            assert lead == e
            assert coeff != 0


def fraction_apply_change(ctx, g, f):
    """Substitution in `Fraction` arithmetic, kept as the oracle of `apply_change`."""
    nv = ctx.nvars
    images = [
        Polynomial({tuple(int(j == k) for j in range(nv)): c for k, c in enumerate(row)})
        for row in g.matrix
    ]
    out = Polynomial.zero()
    for exps, c in f.terms.items():
        term = Polynomial.constant(nv, c)
        for i, ei in enumerate(exps):
            term = term * images[i] ** ei
        out = out + term
    return out


@st.composite
def changes_and_polynomials(draw):
    """A change and 1-3 polynomials of degree 0-8, so packs take 1 to 4 bits."""
    nv = draw(st.integers(2, 4))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=8)
    rows = draw(st.lists(st.lists(entries, min_size=nv, max_size=nv), min_size=nv, max_size=nv))
    try:
        g = LinearChange(tuple(tuple(r) for r in rows))
    except ValueError:
        assume(False)

    def monomial(indices):
        return tuple(indices.count(i) for i in range(nv))

    fs = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(0, 8))
        below = st.lists(st.integers(0, nv - 1), max_size=top).map(monomial)
        terms = draw(st.dictionaries(below, entries, max_size=4))
        # a term of degree top, and on request a constant term (non-homogeneous input)
        lead = draw(st.lists(st.integers(0, nv - 1), min_size=top, max_size=top).map(monomial))
        terms[lead] = draw(entries.filter(bool))
        if draw(st.booleans()):
            terms[(0,) * nv] = draw(entries.filter(bool))
        fs.append(Polynomial(terms))
    return RingContext(nv - 1, GrevLex()), g, fs


@settings(max_examples=150, deadline=None)
@given(changes_and_polynomials())
@example((
    RingContext(2, GrevLex()),
    LinearChange(((Fraction(1, 2), 1, 0), (0, Fraction(-3, 7), 1), (1, 0, 2))),
    [p("1/3*x0^2*x1 - 5/2*x2 + 7/4"), p("-2/3"), p("x0^8 - x1^4*x2 + 3*x2^2"), p("x1^3 + x2")],
))
def test_apply_change_matches_fraction_oracle(problem):
    ctx, g, fs = problem
    outs = [apply_change(ctx, g, f) for f in fs]  # in sequence, through one change
    for f, out in zip(fs, outs):
        assert out == fraction_apply_change(ctx, g, f)
        assert all(type(c) is Fraction for c in out.terms.values())
    fresh = LinearChange(g.matrix)
    assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g)
    assert [apply_change(ctx, fresh, f) for f in reversed(fs)] == outs[::-1]


def inverse(matrix):
    """The inverse of an invertible rational matrix, by Gauss-Jordan elimination on Fractions."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


@st.composite
def packed_changes(draw):
    """A rational change, a polynomial of degree <= 5 in 2-5 variables and a width for it.

    The polynomial has rational terms, on request a negative lead, and on
    request is g^-1 h for a drawn h, so that g·f cancels back to h.
    """
    nv = draw(st.integers(2, 5))
    ctx = RingContext(nv - 1, draw(st.sampled_from([GrevLex(), Lex()])))
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    rows = draw(st.lists(st.lists(entries, min_size=nv, max_size=nv), min_size=nv, max_size=nv))
    try:
        g = LinearChange(tuple(tuple(r) for r in rows))
    except ValueError:
        assume(False)
    top = draw(st.integers(0, 5))
    monomials = st.lists(st.integers(0, nv - 1), max_size=top).map(
        lambda indices: tuple(indices.count(i) for i in range(nv)))
    f = Polynomial(draw(st.dictionaries(monomials, entries.filter(bool), min_size=1, max_size=5)))
    if draw(st.booleans()) and f.leading(ctx)[1] > 0:
        f = -f
    if draw(st.booleans()):
        f = fraction_apply_change(ctx, LinearChange(inverse(g.matrix)), f)
    bits = draw(st.sampled_from([pack_width(f.degree()), 2 * pack_width(f.degree())]))
    return ctx, g, f, bits


@settings(max_examples=100, deadline=None)
@given(packed_changes())
@example((
    RingContext(2, GrevLex()),
    LinearChange(((Fraction(1, 2), 1, 0), (0, Fraction(-3, 7), 1), (1, 0, 2))),
    p("-1/3*x0^2*x1 + 5/2*x2^3 - 7/4*x1^3"),
    4,
))
def test_packed_change_matches_fraction_oracle(problem):
    ctx, g, f, bits = problem
    moved = apply_change(ctx, g, pack(ctx, f, bits))
    decode = ctx.packing(bits).decode
    expected = fraction_apply_change(ctx, g, f)
    assert {decode(m): moved.content * c for m, c in moved.terms.items()} == expected.terms
    # the packed form: primitive ints with a positive lead, at f's packing, f's degree
    assert gcd(*moved.terms.values()) == 1 and moved.terms[min(moved.terms)] > 0
    assert decode(min(moved.terms)) == expected.leading(ctx)[0]
    assert (moved.bits, moved.degree, moved.homogeneous) == (bits, f.degree(), f.is_homogeneous())
    assert apply_change(ctx, g, f) == expected


def test_linear_change_validation():
    with pytest.raises(ValueError):
        LinearChange(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    with pytest.raises(ValueError):
        LinearChange(((Fraction(1), Fraction(0)),))
    LinearChange(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))


def primitive_oracle(f):
    """Denominator clearing in `Fraction` arithmetic, kept as the oracle of `primitive`."""
    if not f.terms:
        return f
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in f.terms.values():
        num = gcd(num, abs(int(c * den)))
    factor = Fraction(den, num)
    return Polynomial({e: c * factor for e, c in f.terms.items()})


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
        max_size=6,
    )
)
def test_primitive_matches_fraction_oracle(terms):
    f = Polynomial(terms)
    g = primitive(f)
    assert g == primitive_oracle(f)
    assert g.terms.keys() == f.terms.keys()
    ratios = {g.terms[e] / c for e, c in f.terms.items()}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)
    assert all(type(c) is Fraction and c.denominator == 1 for c in g.terms.values())
    assert gcd(*(c.numerator for c in g.terms.values())) in (0, 1)


def general_product(f, g):
    """The double loop of `Polynomial.__mul__`, kept as the oracle of its one-term path."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Polynomial(out)


# zero, constants, one-term and two-term polynomials, coefficients of both signs
few_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    max_size=2,
).map(Polynomial)


@settings(max_examples=200, deadline=None)
@given(few_terms, few_terms, st.integers(0, 4))
@example(Polynomial.zero(), p("-3/2*x1"), 0)
@example(p("-2"), p("5*x0^2*x2"), 3)
def test_one_term_products_match_general_product(f, g, k):
    assert f * g == general_product(f, g)
    assert all(type(c) is Fraction for c in (f * g).terms.values())
    if not f:
        if k:
            assert f**k == Polynomial.zero()
        return
    power = Polynomial.constant(3, 1)
    for _ in range(k):
        power = general_product(power, f)
    assert f**k == power
    assert all(type(c) is Fraction for c in (f**k).terms.values())


@settings(max_examples=200, deadline=None)
@given(few_terms, few_terms)
@example(p("x0 - 2*x1"), p("x0 - 2*x1"))
def test_sums_and_differences_merge_term_by_term(f, g):
    # the merge keeps no zero coefficient and leaves both operands unchanged
    before = (dict(f.terms), dict(g.terms))
    for got, sign in ((f + g, 1), (f - g, -1)):
        expected = Polynomial({e: f.terms.get(e, 0) + sign * g.terms.get(e, 0)
                               for e in {*f.terms, *g.terms}})
        assert got == expected and all(got.terms.values())
    assert f - g == f + (-g) and g - g == Polynomial.zero()
    assert (dict(f.terms), dict(g.terms)) == before
