import heapq
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_key
from ginlab import groebner, monideal
from ginlab.families import random_ideal
from ginlab.groebner import Ideal, buchberger, graded_basis_matrix, initial_ideal
from ginlab.hilbert import hilbert_function
from ginlab.monideal import MonomialIdeal, degree_part, intersect, minimalize, saturate
from ginlab.orders import (
    GrevLex,
    Lex,
    RingContext,
    WeightOrder,
    divides,
    lcm,
    mul,
    unit,
)
from ginlab.parsing import parse_polynomial
from ginlab.poly import Polynomial
from oracles import (
    colon_by_variable,
    coprime,
    div,
    ideal_of,
    leading,
    monic,
    monomial_ideal,
    power_multiples_count,
    primitive,
    reduce,
    regular_sequence_powers,
    tuple_buchberger,
    tuple_reduced_basis,
    twisted_cubic_ideal,
)

CTX2 = RingContext(2, GrevLex())
CTX2_LEX = RingContext(2, Lex())
CTX3 = RingContext(3, GrevLex())


def p(text, nvars=3):
    return parse_polynomial(text, nvars)


def divide_with_quotients(ctx, f, basis):
    """Multivariate division that also records quotients, kept as the oracle of `reduce`.

    Returns (r, [q_i]) with f = sum q_i * basis_i + r and no monomial of r
    divisible by a basis lead; the first basis element whose lead divides the
    current top monomial is used, as in `reduce`.
    """
    leads = [leading(ctx, g) for g in basis]
    quotients = [{} for _ in basis]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=lambda u: oracle_key(ctx.order, u))
        c = work.pop(m)
        for t, (lm, lc) in enumerate(leads):
            if divides(lm, m):
                u, q = div(m, lm), c / lc
                quotients[t][u] = quotients[t].get(u, 0) + q
                for e2, c2 in basis[t].terms.items():
                    if e2 != lm:
                        mm = mul(u, e2)
                        work[mm] = work.get(mm, 0) - q * c2
                        if not work[mm]:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return Polynomial(remainder), [Polynomial(q) for q in quotients]


def is_constant(f):
    return all(sum(e) == 0 for e in f.terms)


def fraction_buchberger(ctx, generators):
    """Buchberger's algorithm in `Fraction` arithmetic, kept as the oracle of `buchberger`.

    Same coprime and chain criteria, normalization and final interreduction as
    the integer kernel; division is `divide_with_quotients`.  Pairs are taken
    by lcm degree (normal selection), which is the kernel's sugar order on
    homogeneous input only.
    """
    def key(u):
        return oracle_key(ctx.order, u)

    def reduce_(f, basis):
        return divide_with_quotients(ctx, f, basis)[0]

    def s_polynomial(f, g):
        mf, cf = leading(ctx, f)
        mg, cg = leading(ctx, g)
        l = lcm(mf, mg)
        return f * Polynomial.monomial(div(l, mf), 1 / cf) - g * Polynomial.monomial(
            div(l, mg), 1 / cg
        )

    def normalized(f):
        f = primitive(f)
        return -f if leading(ctx, f)[1] < 0 else f

    basis = []
    for g in generators:
        if not g:
            continue
        h = reduce_(g, basis)
        if h:
            basis.append(normalized(h))
    if not basis:
        return ()
    nv = basis[0].nvars()
    if any(is_constant(g) for g in basis):
        return (Polynomial.constant(nv, 1),)

    leads = [leading(ctx, g)[0] for g in basis]
    heap = []

    def push_pairs(j):
        for i in range(j):
            l = lcm(leads[i], leads[j])
            heapq.heappush(heap, (sum(l), key(l), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    done = set()
    while heap:
        _, _, i, j = heapq.heappop(heap)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        if coprime(li, lj):
            continue
        l = lcm(li, lj)
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not divides(leads[k], l):
                continue
            p1 = (i, k) if i < k else (k, i)
            p2 = (j, k) if j < k else (k, j)
            if p1 in done and p2 in done:
                skip = True
                break
        if skip:
            continue
        h = reduce_(s_polynomial(basis[i], basis[j]), basis)
        if not h:
            continue
        h = normalized(h)
        if is_constant(h):
            return (Polynomial.constant(nv, 1),)
        basis.append(h)
        leads.append(leading(ctx, h)[0])
        push_pairs(len(basis) - 1)

    keep = sorted(leads.index(u) for u in minimalize(leads))
    reduced = []
    for i in keep:
        others = [basis[j] for j in keep if j != i]
        h = reduce_(basis[i], others) if others else basis[i]
        reduced.append(monic(ctx, h))
    reduced.sort(key=lambda g: key(leading(ctx, g)[0]), reverse=True)
    return tuple(reduced)


def mono_ideal(nvars, *gens):
    return monomial_ideal(nvars, gens)


class TestReduce:
    def test_divisible_monomial_goes_to_zero(self):
        assert not reduce(CTX2, p("x0^2*x1"), [p("x0^2")])

    def test_not_reducible_when_lead_differs(self):
        # the basis lead under grevlex is x1^2, so x0*x2 is already reduced
        f = p("x0*x2")
        assert reduce(CTX2, f, [p("x0*x2 - x1^2")]) == f

    def test_single_division_step(self):
        assert reduce(CTX2, p("x1^2"), [p("x0*x2 - x1^2")]) == p("x0*x2")

    def test_idempotent(self):
        basis = [p("x0*x2 - x1^2"), p("x1*x2 - 3*x2^2")]
        rng = random.Random(17)
        for _ in range(10):
            f = Polynomial(
                {
                    tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-5, 5)
                    for _ in range(4)
                }
            )
            r = reduce(CTX2, f, basis)
            assert reduce(CTX2, r, basis) == r

    def test_division_witness(self):
        basis = [p("x0*x2 - x1^2"), p("x1^3 + x2^3")]
        rng = random.Random(19)
        for _ in range(10):
            f = Polynomial(
                {
                    tuple(rng.randint(0, 4) for _ in range(3)): rng.randint(-9, 9)
                    for _ in range(5)
                }
            )
            r, quotients = divide_with_quotients(CTX2, f, basis)
            assert r == reduce(CTX2, f, basis)
            recombined = r
            for q, g in zip(quotients, basis):
                recombined = recombined + q * g
            assert recombined == f

    def test_zero_basis_element_rejected(self):
        with pytest.raises(ValueError):
            reduce(CTX2, p("x0"), [Polynomial.zero()])

    def test_order_of_the_wrong_length_rejected(self):
        # the ring refuses the order before any division runs
        with pytest.raises(ValueError, match="does not match the number of variables"):
            RingContext(2, WeightOrder((1, 2)))


def polynomials(nvars, max_terms):
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    coefficients = st.one_of(
        st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=9)
    )
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(Polynomial)


@st.composite
def division_problems(draw):
    nvars = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)))
    order = draw(st.sampled_from(
        [Lex(), GrevLex(), WeightOrder(weights), WeightOrder(weights, Lex())]
    ))
    basis = draw(st.lists(polynomials(nvars, 4).filter(bool), min_size=1, max_size=3))
    return RingContext(nvars - 1, order), draw(polynomials(nvars, 6)), basis


@settings(max_examples=150, deadline=None)
@given(division_problems())
def test_reduce_matches_division_with_quotients(problem):
    ctx, f, basis = problem
    r, quotients = divide_with_quotients(ctx, f, basis)
    assert reduce(ctx, f, basis) == r
    recombined = r
    for q, g in zip(quotients, basis):
        recombined = recombined + q * g
    assert recombined == f
    leads = [leading(ctx, g)[0] for g in basis]
    assert not any(divides(lm, e) for lm in leads for e in r.terms)


class TestBuchberger:
    def test_principal_ideal_is_its_own_basis(self):
        gb = buchberger(CTX2, Ideal([p("x0*x2 - x1^2")]))
        assert gb == (p("x1^2 - x0*x2"),)  # monic with lead x1^2

    def test_monomial_ideal_fixed(self):
        gens = [p("x0^2"), p("x0*x1"), p("x1^2")]
        gb = buchberger(CTX2, Ideal(gens))
        assert set(gb) == set(gens)

    def test_twisted_cubic_reduced_basis(self):
        tc = twisted_cubic_ideal()
        gb = buchberger(CTX3, tc)
        assert len(gb) == 3
        expected = {
            p("x1^2 - x0*x2", 4),
            p("x1*x2 - x0*x3", 4),
            p("x2^2 - x1*x3", 4),
        }
        assert set(gb) == expected

    def test_oracle_dimensions_match_initial_ideal(self):
        # degreewise elimination on the raw generators is the independent oracle
        tc = twisted_cubic_ideal()
        inM = initial_ideal(CTX3, tc)
        for m in range(6):
            reduced, pivots, cols = graded_basis_matrix(CTX3, tc, m)
            pivot_monomials = {cols[c] for c in pivots}
            assert pivot_monomials == set(inM.graded_monomials(CTX3, m))

    def test_randomized_oracle_sweep_across_orders(self):
        # elimination on raw generator multiples is order-independent; the set
        # of pivot monomials must equal the degree slice of the initial ideal
        # for every order
        from ginlab.orders import Lex, WeightOrder

        rng = random.Random(4242)
        orders = [GrevLex(), Lex(), WeightOrder((2, 1, 1)), WeightOrder((1, 3, 0), Lex())]
        for trial in range(6):
            gens = []
            for _ in range(rng.randint(1, 2)):
                deg = rng.randint(1, 3)
                terms = {}
                for e in RingContext(2, GrevLex()).monomials(deg):
                    c = rng.randint(-4, 4)
                    if c:
                        terms[e] = c
                if terms:
                    gens.append(Polynomial(terms))
            if not gens:
                continue
            I = Ideal(gens)
            for order in orders:
                ctx = RingContext(2, order)
                inM = initial_ideal(ctx, I)
                if inM.contains((0, 0, 0)):
                    continue
                for m in range(6):
                    reduced, pivots, cols = graded_basis_matrix(ctx, I, m)
                    assert {cols[c] for c in pivots} == set(
                        inM.graded_monomials(ctx, m)
                    ), (trial, order, m)

    def test_reduced_basis_is_self_reduced(self):
        I = Ideal([p("x0^2 - x1*x2"), p("x0*x1 - x2^2"), p("x1^3 - x0*x2^2")])
        gb = buchberger(CTX2, I)
        leads = [leading(CTX2, g) for g in gb]
        for lm, lc in leads:
            assert lc == 1
        for i, g in enumerate(gb):
            for j, (lm, _) in enumerate(leads):
                if i == j:
                    continue
                for e in g.terms:
                    assert not all(a <= b for a, b in zip(lm, e))

    def test_zero_ideal(self):
        assert buchberger(CTX2, Ideal([])) == ()

    def test_unit_ideal(self):
        gb = buchberger(CTX2, Ideal([p("x0 + 1"), p("x0")]))
        assert gb == (Polynomial.constant(3, 1),)


def test_divisors_are_primitive_with_positive_lead():
    # basis elements are kept as primitive integer polynomials, lead first
    packing = CTX2.packing(2)
    f = {(0, 0, 2): 10, (1, 0, 1): 4, (0, 2, 0): -6}
    lm, lc, tail = groebner._divisor({packing.encode(e): c for e, c in f.items()})
    divisor = (packing.decode(lm), lc, [(packing.decode(e), c) for e, c in tail])
    assert divisor == ((0, 2, 0), 3, [((1, 0, 1), -2), ((0, 0, 2), -5)])


@st.composite
def pair_criteria_cases(draw):
    """(ring, bits, a, b, c): leads a, b and a third lead c near lcm(a, b), exponents < 2^bits."""
    nvars = draw(st.integers(2, 5))
    weights = tuple(draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)))
    order = draw(st.sampled_from([Lex(), GrevLex(), WeightOrder(weights)]))
    bits = draw(st.integers(1, 6))
    top = 2**bits - 1
    exponents = st.lists(st.one_of(st.sampled_from([0, top]), st.integers(0, top)),
                         min_size=nvars, max_size=nvars)
    a, b = tuple(draw(exponents)), tuple(draw(exponents))
    shifts = draw(st.lists(st.integers(-2, 1), min_size=nvars, max_size=nvars))
    c = tuple(min(max(x + s, 0), top) for x, s in zip(lcm(a, b), shifts))
    return RingContext(nvars - 1, order), bits, a, b, c


@settings(max_examples=300, deadline=None)
@given(pair_criteria_cases())
@example((RingContext(2, Lex()), 3, (7, 0, 7), (0, 7, 0), (7, 7, 7)))  # at capacity, coprime
@example((RingContext(3, GrevLex()), 2, (3, 3, 0, 1), (3, 0, 3, 0), (3, 3, 3, 1)))
@example((RingContext(1, GrevLex()), 1, (1, 1), (1, 1), (1, 0)))
def test_packed_pair_criteria_match_tuple_ones(case):
    # `_basis` reads a pair's packed lcm l: the leads are coprime iff l is the
    # sum of their packs, and the chain criterion's x^c | x^l is the guard test
    ctx, bits, a, b, c = case
    packing = ctx.packing(bits)
    M, G = packing.encode, packing.guard
    l = M(lcm(a, b))
    assert (l == M(a) + M(b)) == coprime(a, b)
    assert (((l | G) - M(c)) & G == G) == divides(c, lcm(a, b))


@st.composite
def generator_sets(draw):
    """Small ideals in 2-4 variables: homogeneous or not, rational coefficients of both signs."""
    nvars = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)))
    order = draw(st.sampled_from(
        [Lex(), GrevLex(), WeightOrder(weights), WeightOrder(weights, Lex())]
    ))
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    # `buchberger` selects pairs by sugar, but the `fraction_buchberger` oracle
    # keeps normal selection, which can run for minutes on a random
    # zero-dimensional ideal (four quadrics in four variables under lex, three
    # non-homogeneous cubics in three), so draws stay below those sizes
    ring = RingContext(nvars - 1)
    if draw(st.booleans()):
        exponents = st.sampled_from(ring.monomials(draw(st.integers(1, 3))))
    else:
        exponents = st.sampled_from([e for d in range(3) for e in ring.monomials(d)])
    terms = st.dictionaries(exponents, coefficients, min_size=1, max_size=3)
    gens = draw(st.lists(terms.map(Polynomial), min_size=1, max_size=min(nvars, 3)))
    return RingContext(nvars - 1, order), gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
@example((CTX2, []))  # the zero ideal
@example((CTX2_LEX, [p("3/2*x0 + 1"), p("-2*x0")]))  # the unit ideal
@example((CTX3, [p("x1^2 - 1/2*x0*x2", 4), p("-3/7*x1*x2 + x0*x3", 4), p("x2^2 - x1*x3", 4)]))
def test_buchberger_matches_fraction_oracle(problem):
    ctx, gens = problem
    gb = buchberger(ctx, Ideal(gens))
    assert gb == fraction_buchberger(ctx, gens)
    assert all(type(c) is Fraction for g in gb for c in g.terms.values())
    # in(J) read off the unreduced basis has the leads of the reduced one
    leads = frozenset(leading(ctx, g)[0] for g in gb)
    M = initial_ideal(ctx, Ideal(gens))
    assert M.min_gens == leads
    # the Hilbert criterion's bound is a lower bound for HF(S/J) = HF(S/in(J))
    powers = regular_sequence_powers(ctx, gens)
    if powers is not None:
        top = max((g.degree() for g in gens if g), default=0)
        assert all(regular_sequence_hf(ctx, powers, d) <= hilbert_function(ctx, M, d)
                   for d in range(top + 4))


def packed_run(ctx, gens):
    """(basis, widths run at, nonzero remainders, divisions) of `groebner._buchberger`.

    The last two count the last run, from which the basis comes.  It is a full
    run: no trace that an earlier example recorded is replayed.
    """
    widths, nonzero = [], []
    real_basis, real_reduce = groebner._basis, groebner._reduce

    def basis(ctx, packing, generators):
        widths.append(packing.width)
        nonzero.clear()
        return real_basis(ctx, packing, generators)

    def reduce_(*args):
        r, s = real_reduce(*args)
        nonzero.append(bool(r))
        return r, s

    with patch.object(groebner, "_basis", basis), patch.object(groebner, "_reduce", reduce_), \
            patch.object(groebner, "_traces", {}):
        out = groebner._buchberger(ctx, groebner._packed(ctx, gens))
    return out, widths, sum(nonzero), len(nonzero)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
@example((CTX2, []))  # the zero ideal
@example((CTX2_LEX, [p("3/2*x0 + 1"), p("-2*x0")]))  # the unit ideal
def test_packed_buchberger_matches_tuple_oracle(problem):
    ctx, gens = problem
    basis, _, nonzero, reductions = packed_run(ctx, gens)
    leads = [lm for lm, _, _ in basis]
    # the same algorithm on exponent tuples: the same leads in the same order,
    # and the same pairs reduced, so the Hilbert criterion skips the same ones
    divisors, oracle_nonzero, oracle_reductions = tuple_buchberger(ctx, gens, full=False)
    assert leads == [lm for lm, _, _ in divisors]
    assert nonzero == oracle_nonzero
    assert reductions == oracle_reductions
    # divisions to the full normal form, as before: the same answer
    divisors, _, _ = tuple_buchberger(ctx, gens)
    assert minimalize(leads) == minimalize(lm for lm, _, _ in divisors)
    assert buchberger(ctx, Ideal(gens)) == tuple_reduced_basis(ctx, divisors)


def test_stopping_at_the_lead_can_change_the_pair_sequence_not_the_answer():
    # the divisors' tails are left unreduced, so a later remainder can differ
    # from the one full division gives; here one element fewer is found, while
    # in(I) and the reduced basis are unique
    gens = [p("6/7*x0*x1*x2 + 7/5*x1^2"), p("-2*x0*x1^2 + 3/4*x1^2*x2 + 1/3*x2^3 + 7/5*x2^2"),
            p("5*x0*x1*x2 - 8/5*x1 + 3/2*x2")]
    leads = [lm for lm, _, _ in groebner._buchberger(CTX2_LEX, groebner._packed(CTX2_LEX, gens))]
    full, nonzero, _ = tuple_buchberger(CTX2_LEX, gens)
    assert leads == [lm for lm, _, _ in full if lm != (0, 0, 8)]
    assert nonzero == len(leads) + 1
    assert minimalize(leads) == minimalize(lm for lm, _, _ in full)
    assert buchberger(CTX2_LEX, Ideal(gens)) == tuple_reduced_basis(CTX2_LEX, full)


# Inputs whose bases outgrow the first packing, 2 * bit length of the top
# exponent bits per field: lex tail products of a chain x0 -> x1^3 -> x2^9 ->
# x3^27, with and without homogenizing, top exponent 3 = 2^2 - 1; the same
# chain under a weight order that eliminates like lex; and squarefree input,
# whose first packing holds exponents up to 3 only.
CAPACITY_EDGE = [
    (Lex(), "x0 - x1^3; x1 - x2^3; x0^3 - x3"),
    (Lex(), "x0*x3^2 - x1^3; x1*x3^2 - x2^3; x0^3 - x2*x3^2"),
    (WeightOrder((28, 9, 2, 0)), "x0 - x1^3; x1 - x2^3; x0^3 - x3"),
    (GrevLex(), "x1*x2*x3 - x0*x1*x2; x1*x3 - x0*x2; x0*x3 - x0*x1"),
    (GrevLex(), "x0*x2 - x1*x3; x0*x2*x3 - x0*x1*x3; x0*x1*x3 - 2*x0*x1*x2"),
    (WeightOrder((0, 0, 1, 2), Lex()), "x0*x1 - x2*x3; x1*x2 - x0*x3; x0*x2 - x1"),
]


@pytest.mark.parametrize("order, text", CAPACITY_EDGE)
def test_packing_restarts_past_its_capacity(order, text):
    ctx = RingContext(3, order)
    gens = [p(t, 4) for t in text.split(";")]
    basis, widths, nonzero, reductions = packed_run(ctx, gens)
    assert len(widths) > 1 and widths == sorted(widths)
    divisors, oracle_nonzero, oracle_reductions = tuple_buchberger(ctx, gens, full=False)
    assert [lm for lm, _, _ in basis] == [lm for lm, _, _ in divisors]
    assert (nonzero, reductions) == (oracle_nonzero, oracle_reductions)
    gb = buchberger(ctx, Ideal(gens))
    assert gb == tuple_reduced_basis(ctx, tuple_buchberger(ctx, gens)[0])
    # and full division by the reduced basis sends a member of the ideal to zero
    assert not reduce(ctx, gens[0] * gens[-1] ** 3, gb)


def regular_sequence_hf(ctx, powers, d):
    """HF(S/<x_i^(d_i)>)_d, the bound the Hilbert criterion counts against."""
    return ctx.dim(d) - len(degree_part(ctx, powers, d))


def regular_sequence_bound(ctx, gens):
    """The replaced K-product form of the bound, kept as its oracle.

    d -> sum_j K_j C(d - j + n, n) with K = prod(1 - t^d_i), or None for more
    than n + 1 generators or a generator that is not homogeneous.
    """
    if len(gens) > ctx.nvars or not all(g.is_homogeneous() for g in gens):
        return None
    K = [1]
    for g in gens:
        d = g.degree()
        K = [a - b for a, b in zip(K + [0] * d, [0] * d + K)]
    return lambda d: sum(c * ctx.dim(d - j) for j, c in enumerate(K))


def rational_normal_quartic():
    """The six 2x2 minors of [[x0, x1, x2, x3], [x1, x2, x3, x4]]."""
    x = [Polynomial.variable(5, i) for i in range(5)]
    return [x[i] * x[j + 1] - x[j] * x[i + 1] for i in range(4) for j in range(i + 1, 4)]


def dense_ci(n, degrees, seed):
    return list(random_ideal(RingContext(n), degrees, random.Random(seed), bound=9).generators)


# (ring, generators, whether the regular-sequence bound applies)
HILBERT_CRITERION_CASES = {
    # the bound is not attained: it is met in degree 2 and falls short in degree 3
    "x0*x1, x0*x2 lex": (CTX2_LEX, [p("x0*x1"), p("x0*x2")], True),
    "x0*x1, x0*x2 grevlex": (CTX2, [p("x0*x1"), p("x0*x2")], True),
    "twisted cubic grevlex": (CTX3, list(twisted_cubic_ideal().generators), True),
    "twisted cubic lex": (RingContext(3, Lex()), list(twisted_cubic_ideal().generators), True),
    # the pair (x0^2 + x1^2, x0) adds the lead x1^2, which divides the earlier lead x1^3
    "x1^3, x0^2 + x1^2, x0 lex": (CTX2_LEX, [p("x1^3"), p("x0^2 + x1^2"), p("x0")], True),
    # more than n + 1 generators: no bound
    "four quadrics in P^2": (CTX2_LEX, dense_ci(2, (2, 2, 2, 2), 1), False),
    "rational normal quartic": (RingContext(4, GrevLex()), rational_normal_quartic(), False),
    # dense complete intersections, where pairs are skipped
    "ci(2,2) P^2 lex": (CTX2_LEX, dense_ci(2, (2, 2), 2), True),
    "ci(2,2) P^2 grevlex": (CTX2, dense_ci(2, (2, 2), 3), True),
    "ci(2,3) P^2 lex": (CTX2_LEX, dense_ci(2, (2, 3), 4), True),
    "ci(2,3) P^2 grevlex": (CTX2, dense_ci(2, (2, 3), 5), True),
    "ci(2,2) P^3 lex": (RingContext(3, Lex()), dense_ci(3, (2, 2), 6), True),
    "ci(2,2) P^3 grevlex": (CTX3, dense_ci(3, (2, 2), 7), True),
}


@pytest.mark.parametrize("name", sorted(HILBERT_CRITERION_CASES))
def test_hilbert_criterion_matches_fraction_oracle(name):
    ctx, gens, has_bound = HILBERT_CRITERION_CASES[name]
    assert (groebner._bound_ideal(ctx, groebner._packed(ctx, gens)) is not None) == has_bound
    gb = buchberger(ctx, Ideal(gens))
    assert gb == fraction_buchberger(ctx, gens)
    leads = frozenset(leading(ctx, g)[0] for g in gb)
    assert initial_ideal(ctx, Ideal(gens)).min_gens == leads


# Leads of the unreduced basis in the order `_buchberger` appends them.  The
# pair heap takes the smallest lcm first among equal sugar, so these pin the
# pair sequence, not only the basis: taking the largest lcm first swaps
# (0, 3, 0, 0) and (1, 0, 0, 2) in ci(2,2,2) P^3 lex.
UNREDUCED_LEADS = {
    "twisted cubic lex": [(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1)],
    "twisted cubic grevlex": [(0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0)],
    "ci(2,2) P^2 lex": [(2, 0, 0), (1, 1, 0), (1, 0, 2), (0, 4, 0)],
    "ci(2,2) P^2 grevlex": [(2, 0, 0), (1, 1, 0), (0, 3, 0)],
    "ci(2,2,2) P^3 lex": [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 3, 0, 0), (1, 0, 0, 2),
                          (0, 2, 1, 0), (0, 2, 0, 2), (0, 1, 3, 0), (0, 1, 2, 2), (0, 1, 1, 4),
                          (0, 1, 0, 6), (0, 0, 8, 0)],
    "ci(2,2,2) P^3 grevlex": [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 2, 0),
                              (0, 1, 2, 0), (0, 0, 4, 0)],
    "four quadrics in P^2 lex": [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 2), (0, 0, 3)],
    "four quadrics in P^2 grevlex": [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 2), (0, 0, 3)],
}


@pytest.mark.parametrize("name", sorted(UNREDUCED_LEADS))
def test_unreduced_leads_in_pair_order(monkeypatch, name):
    monkeypatch.setattr(groebner, "_traces", {})  # the full run's order, not a replay's
    family, order = name.rsplit(" ", 1)
    n, gens = {
        "twisted cubic": (3, list(twisted_cubic_ideal().generators)),
        "ci(2,2) P^2": (2, dense_ci(2, (2, 2), 2)),
        "ci(2,2,2) P^3": (3, dense_ci(3, (2, 2, 2), 1)),
        "four quadrics in P^2": (2, dense_ci(2, (2, 2, 2, 2), 1)),
    }[family]
    ctx = RingContext(n, Lex() if order == "lex" else GrevLex())
    basis = groebner._buchberger(ctx, groebner._packed(ctx, gens))
    assert [lm for lm, _, _ in basis] == UNREDUCED_LEADS[name]


@pytest.mark.parametrize(
    "ctx, gens, values",
    [
        # (d, bound, HF(S/I)_d)
        (CTX2, [p("x0*x1"), p("x0*x2")], [(1, 3, 3), (2, 4, 4), (3, 4, 5), (4, 4, 6)]),
        (CTX3, list(twisted_cubic_ideal().generators), [(2, 7, 7), (3, 8, 10), (4, 8, 13)]),
    ],
)
def test_regular_sequence_bound_where_it_is_not_attained(ctx, gens, values):
    powers = regular_sequence_powers(ctx, gens)
    M = initial_ideal(ctx, Ideal(gens))
    got = [(d, regular_sequence_hf(ctx, powers, d), hilbert_function(ctx, M, d))
           for d, _, _ in values]
    assert got == values


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 5), max_size=n + 1))))
def test_regular_sequence_powers_match_k_product(problem):
    # the powers x_i^(d_i) have the Hilbert function prod(1 - t^d_i) / (1 - t)^(n+1)
    n, degrees = problem
    ctx = RingContext(n, GrevLex())
    gens = [Polynomial.variable(n + 1, 0) ** d for d in degrees]
    powers = regular_sequence_powers(ctx, gens)
    assert sorted(map(sum, powers)) == sorted(degrees)
    bound = regular_sequence_bound(ctx, gens)
    M = monomial_ideal(n + 1, powers)
    for d in range(sum(degrees) + 3):
        assert bound(d) == regular_sequence_hf(ctx, powers, d) == hilbert_function(ctx, M, d)


def test_regular_sequence_powers_not_applicable():
    assert regular_sequence_powers(CTX2, [p("x0")] * 4) is None
    assert regular_sequence_powers(CTX2, [p("x0^2 + x1")]) is None
    assert groebner._bound_ideal(CTX2, groebner._packed(CTX2, [p("x0")] * 4)) is None
    assert groebner._bound_ideal(CTX2, groebner._packed(CTX2, [p("x0^2 + x1")])) is None
    assert regular_sequence_bound(CTX2, [p("x0")] * 4) is None
    assert regular_sequence_powers(CTX2, []) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, 6), min_size=1, max_size=n + 1), st.integers(0, 25))))
def test_regular_sequence_count_matches_enumeration(problem):
    # the criterion's bound ideal and the inclusion-exclusion count of the
    # powers' degree-d multiples, each against the slice
    n, degrees, d = problem
    ctx = RingContext(n, Lex())
    gens = [Polynomial.variable(n + 1, i) ** k for i, k in enumerate(degrees)]
    powers = regular_sequence_powers(ctx, gens)
    bound = groebner._bound_ideal(ctx, groebner._packed(ctx, gens))
    assert bound.min_gens == frozenset(powers)
    count = len(degree_part(ctx, powers, d))
    assert ctx.dim(d) - hilbert_function(ctx, bound, d) == count
    assert power_multiples_count(ctx, degrees)(d) == count


CI_23_P3 = [
    p(
        "-2*x3^2 + 9*x2*x3 - 4*x2^2 - 9*x1*x3 + 8*x1*x2 + x1^2 - 2*x0*x3 - 2*x0*x2"
        " - x0*x1 + 6*x0^2",
        4,
    ),
    p(
        "-7*x3^3 - 6*x2*x3^2 + 7*x2^2*x3 + 6*x2^3 - 9*x1*x3^2 - 5*x1*x2*x3 - 3*x1*x2^2"
        " - x1^2*x3 - 6*x1^2*x2 + 7*x1^3 - 7*x0*x3^2 - 2*x0*x2*x3 - 9*x0*x2^2 - 7*x0*x1*x3"
        " - 7*x0*x1*x2 + 9*x0*x1^2 + 4*x0^2*x3 + x0^2*x2 - 7*x0^2*x1 - 3*x0^3",
        4,
    ),
]


@pytest.mark.parametrize(
    "ctx, gens, nonzero",
    [
        # dense ci(2,3) in P^3 under lex: 2 generator reductions and 5 S-pairs,
        # each a new basis element; without the criterion 7 more pairs reduce to zero
        (RingContext(3, Lex()), CI_23_P3, [True] * 7),
        # the bound falls short in degree 3, so the one pair there is reduced, to zero
        (CTX2, [p("x0*x1"), p("x0*x2")], [True, True, False]),
    ],
)
def test_reductions_inside_buchberger(monkeypatch, ctx, gens, nonzero):
    monkeypatch.setattr(groebner, "_traces", {})  # the full run, not a replay
    results = []
    real = groebner._reduce

    def counted(*args):
        r, s = real(*args)
        results.append(bool(r))
        return r, s

    monkeypatch.setattr(groebner, "_reduce", counted)
    groebner._buchberger(ctx, groebner._packed(ctx, gens))
    assert results == nonzero


def test_equal_hilbert_series_read_equal_numerators():
    # the lex in(ci(2,3)) in P^3 and the criterion's bound <x0^2, x1^3> have one
    # Hilbert series; the certificate compares their numerators as tuples
    ctx = RingContext(3, Lex())
    M = initial_ideal(ctx, Ideal(CI_23_P3))
    bound = groebner._bound_ideal(ctx, groebner._packed(ctx, CI_23_P3))
    assert M != bound
    assert M.numerator == bound.numerator == (1, 0, -1, -1, 0, 1)
    # the unit ideal has K = 0, the zero ideal K = 1
    assert monomial_ideal(3, [(0, 0, 0)]).numerator == ()
    assert MonomialIdeal(3, frozenset()).numerator == (1,)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 4)] * (n + 1)), max_size=5),
    st.lists(st.tuples(*[st.integers(0, 4)] * (n + 1)), max_size=5),
    st.permutations(range(n + 1)))))
# the lex in(ci(2,3)) in P^3 and <x0^2, x1^3>
@example(([(2, 0, 0, 0), (1, 2, 0, 0), (1, 1, 2, 0), (1, 1, 1, 2), (1, 1, 0, 4), (1, 0, 6, 0),
           (0, 6, 0, 0)], [(2, 0, 0, 0), (0, 3, 0, 0)], [3, 2, 1, 0]))
def test_numerators_are_equal_iff_hilbert_series_are(drawn):
    # A, its image under a permutation of the variables, and an unrelated B: K
    # has degree at most the generator degree sum D, and K_j is read off HF(S/M)
    # in degrees <= j, so the series agree iff the functions agree up to D
    a, b, perm = drawn
    nv = len(perm)
    ctx = RingContext(nv - 1, GrevLex())
    A, B = monomial_ideal(nv, a), monomial_ideal(nv, b)
    swapped = monomial_ideal(nv, [tuple(u[i] for i in perm) for u in a])
    assert swapped.numerator == A.numerator
    assert A.numerator[-1:] != (0,)
    top = sum(map(sum, a)) + sum(map(sum, b))
    same = all(hilbert_function(ctx, A, d) == hilbert_function(ctx, B, d) for d in range(top + 1))
    assert (A.numerator == B.numerator) == same


def dense_form(ctx, d, rng):
    return Polynomial({u: rng.choice([-9, -5, -2, -1, 1, 3, 4, 7]) for u in ctx.monomials(d)})


@st.composite
def trace_families(draw):
    """(ring, members): two or three ideals of one generator degree list, to run in turn.

    n is 1-3, the order lex, grevlex or a weight order.  The first member is
    dense and generic, so it records a trace whenever its degrees allow one;
    later members are dense too, so they share its key, or sparse (1-3
    terms a form), so they may share it and fail its replay.  With
    `common`, every form of a member takes a common linear factor, so the
    member is no complete intersection and never reaches its bound; with
    n + 2 forms there is no bound at all.
    """
    n = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1)))
    order = draw(st.sampled_from([Lex(), GrevLex(), WeightOrder(weights, Lex())]))
    ring = RingContext(n)
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=n + 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    members = [[dense_form(ring, d, rng) for d in degrees]]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            gens = [dense_form(ring, d, rng) for d in degrees]
        else:
            gens = [Polynomial(dict(zip(
                draw(st.lists(st.sampled_from(ring.monomials(d)), min_size=1, max_size=3,
                              unique=True)),
                draw(st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3)))))
                for d in degrees]
        if draw(st.booleans()):
            common = dense_form(ring, 1, rng)
            gens = [common * g for g in gens]
        members.append(gens)
    return RingContext(n, order), members


def run_members(ctx, members, traces):
    """[(in(J), reduced basis of J)] for the members J in turn; each call's trace dict is `traces()`."""
    out = []
    for gens in members:
        calls = []
        for f in (initial_ideal, buchberger):
            with patch.object(groebner, "_traces", traces()):
                calls.append(f(ctx, Ideal(gens)))
        out.append(tuple(calls))
    return out


CI_22_P2_LEX = dense_ci(2, (2, 2), 2)


@settings(max_examples=120, deadline=None)
@given(trace_families())
# the dense ci(2,2) records [(0, 1), (1, 2)]; this member shares its key, and the
# second replayed pair reduces to zero
@example((CTX2_LEX, [CI_22_P2_LEX, [p("x0^2"), p("3*x0^2 + 2*x0*x1 + 2*x1^2")]]))
# here the one replayed pair gives an element, and the certificate fails
@example((CTX2, [dense_ci(2, (2, 2), 1), [p("x0^2 + x2^2"), p("x0*x1 + 3*x2^2")]]))
def test_replayed_trace_matches_the_full_run(family):
    # every member after the first may replay the trace an earlier one recorded;
    # the oracle runs each call with no trace at all
    ctx, members = family
    shared = {}
    replayed = run_members(ctx, members, lambda: shared)
    assert replayed == run_members(ctx, members, dict)


def test_a_dense_family_replays_its_first_trace(monkeypatch):
    # ten dense ci(2,3) in lex P^3: the first member runs in full, forming 15
    # pairs and reducing 5 of them; each later one forms and reduces only the 5
    # its trace lists, and none reduces to zero.  The full run computes the
    # Hilbert numerators of its bound and of its leads where it counts a degree
    # or its deficit reaches 0; a replay's leads are the first member's, so it
    # computes none
    ctx = RingContext(3, Lex())
    monkeypatch.setattr(groebner, "_traces", {})
    monideal._numerator_of.cache_clear()
    counts = Counter()
    real_reduce, real_lcm = groebner._reduce, groebner.lcm

    def reduce_(*args):
        r, s = real_reduce(*args)
        counts["reductions"] += 1
        counts["zero"] += not r
        return r, s

    def lcm_(*args):
        counts["pairs"] += 1
        return real_lcm(*args)

    monkeypatch.setattr(groebner, "_reduce", reduce_)
    monkeypatch.setattr(groebner, "lcm", lcm_)
    rng = random.Random(1)
    runs = []
    for _ in range(10):
        I = random_ideal(RingContext(3), (2, 3), rng, bound=9)
        counts.clear()
        misses = monideal._numerator_of.cache_info().misses
        M = initial_ideal(ctx, I)
        runs.append((counts["reductions"] - 2, counts["pairs"], counts["zero"],
                     monideal._numerator_of.cache_info().misses - misses))
        assert M == run_members(ctx, [I.generators], dict)[0][0]
    assert runs == [(5, 15, 0, 6)] + [(5, 5, 0, 0)] * 9
    assert [len(trace) for trace in groebner._traces.values()] == [5]


class TestInitialIdeal:
    def test_conic_grevlex(self):
        assert initial_ideal(CTX2, Ideal([p("x0*x2 - x1^2")])) == mono_ideal(3, (0, 2, 0))

    def test_conic_lex(self):
        assert initial_ideal(CTX2_LEX, Ideal([p("x0*x2 - x1^2")])) == mono_ideal(3, (1, 0, 1))

    def test_monomial_ideal_fixed_point(self):
        M = mono_ideal(3, (2, 0, 0), (0, 1, 1))
        assert initial_ideal(CTX2, ideal_of(M)) == M

    def test_invariant_under_rescaling_and_permutation(self):
        gens = [p("x0*x2 - x1^2"), p("x1*x2 - x0^2")]
        base = initial_ideal(CTX2, Ideal(gens))
        scaled = initial_ideal(CTX2, Ideal([g * Fraction(3, 7) for g in gens]))
        permuted = initial_ideal(CTX2, Ideal(list(reversed(gens))))
        assert base == scaled == permuted


class TestGradedPiece:
    """The degree-m slice of an ideal as `graded_basis_matrix` returns it."""

    def test_principal_monomial_count(self):
        ctx = RingContext(1, GrevLex())
        reduced, pivots, cols = graded_basis_matrix(ctx, Ideal([p("x0", 2)]), 2)
        assert cols == ((2, 0), (1, 1), (0, 2))
        assert reduced == ((1, 0, 0), (0, 1, 0)) and pivots == (0, 1)

    def test_conic_degree_two(self):
        reduced, pivots, cols = graded_basis_matrix(CTX2, Ideal([p("x0*x2 - x1^2")]), 2)
        # x0*x2 - x1^2 made monic: its lead x1^2 comes first in grevlex
        assert pivots == (cols.index((0, 2, 0)),)
        assert {cols[k]: c for k, c in enumerate(reduced[0]) if c} == {(0, 2, 0): 1, (1, 0, 1): -1}

    def test_conic_degree_three(self):
        reduced, pivots, _ = graded_basis_matrix(CTX2, Ideal([p("x0*x2 - x1^2")]), 3)
        assert len(reduced) == len(pivots) == 3

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError, match="homogeneous"):
            graded_basis_matrix(CTX2, Ideal([p("x0 + 1")]), 2)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="negative degree"):
            graded_basis_matrix(CTX2, Ideal([p("x0")]), -1)


def saturate_by_fixpoint(M):
    """Oracle for saturate: intersect the single-variable colons until nothing moves."""
    current = M
    while True:
        step = colon_by_variable(current, 0)
        for i in range(1, current.nvars):
            step = intersect(step, colon_by_variable(current, i))
        if step == current:
            return current
        current = step


@st.composite
def sliced_ideals(draw):
    """(ring, monomial ideal, degree): 2-5 variables, up to 8 generators, lex, grevlex or weights."""
    nv = draw(st.integers(2, 5))
    weights = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
    order = draw(st.sampled_from([Lex(), GrevLex(), WeightOrder(weights)]))
    # an empty list gives the zero ideal, a zero tuple the unit ideal
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * nv), max_size=8))
    return RingContext(nv - 1, order), monomial_ideal(nv, gens), draw(st.integers(0, 10))


class TestMonomialIdealOps:
    def test_colon_examples(self):
        assert colon_by_variable(mono_ideal(3, (2, 0, 0)), 0) == mono_ideal(3, (1, 0, 0))
        assert colon_by_variable(mono_ideal(3, (0, 2, 0)), 0) == mono_ideal(3, (0, 2, 0))
        assert colon_by_variable(
            mono_ideal(3, (1, 1, 0), (0, 1, 1)), 1
        ) == mono_ideal(3, (1, 0, 0), (0, 0, 1))

    def test_saturate_one_step(self):
        M = mono_ideal(3, (2, 0, 0), (1, 1, 0), (1, 0, 1))
        assert saturate(M) == mono_ideal(3, (1, 0, 0))

    def test_saturate_fixed_point(self):
        M = mono_ideal(3, (0, 2, 0))
        assert saturate(M) == M

    def test_saturate_irrelevant_power_is_unit(self):
        square = [u for u in CTX2.monomials(2)]
        M = monomial_ideal(3, square)
        assert saturate(M) == monomial_ideal(3, [(0, 0, 0)])

    def test_saturation_properties(self):
        for gens in [
            [(2, 0, 0), (1, 1, 0), (1, 0, 1)],
            [(0, 2, 0)],
            [(3, 0, 0), (2, 1, 0)],
        ]:
            M = monomial_ideal(3, gens)
            S = saturate(M)
            assert saturate(S) == S
            for u in M.min_gens:
                assert S.contains(u)
            # graded pieces agree in large degrees
            top = max(sum(g) for g in gens) + 4
            for m in range(top - 2, top + 1):
                assert M.graded_monomials(CTX2, m) == S.graded_monomials(CTX2, m)

    @settings(deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            # an empty list gives the zero ideal
            lambda nv: st.lists(st.tuples(*[st.integers(0, 5)] * nv), max_size=8).map(
                lambda gens: monomial_ideal(nv, gens)
            )
        )
    )
    def test_saturate_matches_fixpoint_oracle(self, M):
        S = saturate(M)
        assert S == saturate_by_fixpoint(M)
        assert saturate(S) == S

    @settings(deadline=None)
    @given(
        st.integers(3, 4).flatmap(
            lambda nv: st.lists(st.tuples(*[st.integers(0, 4)] * nv), max_size=6).map(
                lambda gens: monomial_ideal(nv, gens)
            )
        )
    )
    def test_saturate_matches_brute_force(self, M):
        # u lies in sat(M) iff u * x_i^k lies in M for every i, k the largest
        # generator exponent; both ideals are generated inside the box of
        # exponents <= k, so they agree once they agree on that box
        S = saturate(M)
        assert saturate(S) == S
        assert all(S.contains(u) for u in M.min_gens)
        k = max((e for g in M.min_gens for e in g), default=0)
        powers = [tuple(k if j == i else 0 for j in range(M.nvars)) for i in range(M.nvars)]
        for u in product(range(k + 1), repeat=M.nvars):
            assert S.contains(u) == all(M.contains(mul(u, x)) for x in powers), u

    @settings(deadline=None)
    @given(sliced_ideals())
    @example((RingContext(2, Lex()), MonomialIdeal(3, frozenset()), 4))  # the zero ideal
    @example((RingContext(3, GrevLex()), monomial_ideal(4, [(0, 0, 0, 0)]), 0))  # unit
    @example((RingContext(4, WeightOrder((1, 0, 2, 0, 1))), monomial_ideal(5, [unit(5)]), 10))
    def test_graded_monomials_match_contains_scan(self, problem):
        ctx, M, m = problem
        assert M.graded_monomials(ctx, m) == tuple(u for u in ctx.monomials(m) if M.contains(u))

    def test_intersect_examples(self):
        A = mono_ideal(3, (1, 0, 0), (0, 1, 0))
        B = mono_ideal(3, (1, 0, 0))
        assert intersect(A, B) == B  # contained ideal wins
        C = mono_ideal(3, (0, 2, 0))
        assert intersect(B, C) == mono_ideal(3, (1, 2, 0))
