from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ginlab.gin import (
    certified_initial_ideal,
    generic_initial_ideal,
    index_at_degree,
    is_borel_fixed,
    random_linear_change,
    secondary_gin,
)
from ginlab.grassmann import hilbert_point
from ginlab import gin, groebner, hilbert
from ginlab.groebner import Ideal, buchberger, initial_ideal
from ginlab.hilbert import (
    binomial_poly,
    hilbert_function,
    hilbert_polynomial,
    hilbert_polynomial_of_monomial_ideal,
)
from ginlab.linalg import det
from ginlab.monideal import saturate
from ginlab.orders import GrevLex, Lex, RingContext
from ginlab.parsing import parse_polynomial
from ginlab.poly import LinearChange, Polynomial, apply_change, pack

from conftest import exhaustive_limit_oracle, oracle_generic_initial_ideal
from oracles import (
    WeightVector,
    counting_certify,
    enumerating_certify,
    identity_change,
    ideal_of,
    index_rank,
    initial_subspace,
    monomial_ideal,
    one_ps_limit_check,
    schubert_cell_index,
    subspace_from_polynomials,
    twisted_cubic_ideal,
    weight_vector_for_order,
)

CTX2 = RingContext(2, GrevLex())
CTX3 = RingContext(3, GrevLex())


def p(text, nvars=3):
    return parse_polynomial(text, nvars)


def conic():
    return Ideal([p("x0*x2 - x1^2")])


def mono_ideal(nvars, *gens):
    return monomial_ideal(nvars, gens)


class TestRandomLinearChange:
    def test_deterministic(self):
        a = random_linear_change(CTX2, seed=5, bound=50)
        b = random_linear_change(CTX2, seed=5, bound=50)
        assert a.matrix == b.matrix

    def test_always_invertible(self):
        from ginlab.linalg import det

        for seed in range(30):
            g = random_linear_change(CTX2, seed=seed, bound=3)
            assert det(g.matrix) != 0

    def test_distinct_seeds_give_distinct_matrices(self):
        seen = {random_linear_change(CTX2, seed=s, bound=100).matrix for s in range(100)}
        assert len(seen) == 100

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            random_linear_change(CTX2, seed=0, bound=1)


class TestGenericInitialIdeal:
    def test_conic(self):
        res = generic_initial_ideal(CTX2, conic(), trials=5, seed=11)
        assert res.gin == mono_ideal(3, (2, 0, 0))
        assert res.stable
        assert res.certification_degree == 2
        assert res.index.monomials == ((2, 0, 0),)

    def test_monomial_square_fixed(self):
        res = generic_initial_ideal(CTX2, Ideal([p("x0^2")]), trials=3, seed=2)
        assert res.gin == mono_ideal(3, (2, 0, 0))

    def test_gin_idempotent_on_lex_ideal(self):
        from ginlab.hilbert import lex_segment_ideal, parse_hilbert_polynomial

        L = lex_segment_ideal(CTX2, parse_hilbert_polynomial("2*m + 1"))
        res = generic_initial_ideal(CTX2, L, trials=5, seed=3)
        assert res.gin == mono_ideal(3, (2, 0, 0))
        assert res.stable
        again = generic_initial_ideal(CTX2, ideal_of(res.gin), trials=5, seed=4)
        assert again.gin == res.gin

    def test_zero_ideal(self):
        # the general path: P = C(m+2, 2) is one binomial, so m0 = 1 and m = 1
        res = generic_initial_ideal(CTX2, Ideal([]), trials=2, seed=0)
        assert not res.gin.min_gens
        assert res.stable
        assert res.index.monomials == ()
        assert res.hilbert_polynomial == binomial_poly(2, 2)
        assert res.certification_degree == res.gotzmann == 1
        assert not secondary_gin(CTX2, Ideal([]), identity_change(3)).min_gens

    def test_hilbert_function_preserved_across_trials(self):
        I = conic()
        m_cert = certified_initial_ideal(CTX2, I).certification_degree
        inI = initial_ideal(CTX2, I)
        for t in range(3):
            g = random_linear_change(CTX2, seed=100 + t)
            moved = Ideal([apply_change(CTX2, g, f) for f in I.generators])
            inM = initial_ideal(CTX2, moved)
            for m in range(m_cert + 3):
                assert hilbert_function(CTX2, inM, m) == hilbert_function(CTX2, inI, m)

    def test_sampled_indices_never_exceed_certified(self):
        I = conic()
        res = generic_initial_ideal(CTX2, I, trials=5, seed=7)
        certified = index_rank(CTX2, res.index)
        for seed in range(10):
            g = random_linear_change(CTX2, seed=seed * 31 + 1)
            idx = index_at_degree(CTX2, secondary_gin(CTX2, I, g), res.certification_degree)
            # a lower index has a larger rank
            assert index_rank(CTX2, idx) >= certified

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            generic_initial_ideal(CTX2, Ideal([p("x0 + 1")]), trials=2, seed=0)

    def test_certification_requires_homogeneous(self):
        I = Ideal([p("x0 + 1")])
        with pytest.raises(ValueError, match="homogeneous"):
            certified_initial_ideal(CTX2, I)
        with pytest.raises(ValueError, match="homogeneous"):
            hilbert_polynomial(CTX2, I)
        with pytest.raises(ValueError, match="homogeneous"):
            secondary_gin(CTX2, I, identity_change(3))

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            generic_initial_ideal(CTX2, conic(), trials=1, seed=0)


def test_gin_idempotence_on_corpus(corpus):
    for i, (label, ctx, I) in enumerate(corpus):
        first = generic_initial_ideal(ctx, I, trials=3, seed=1000 + i)
        # oracle: saturating the whole Schubert index gives the same ideal
        assert first.gin == saturate(monomial_ideal(ctx.nvars, first.index.monomials)), label
        again = generic_initial_ideal(ctx, ideal_of(first.gin), trials=3, seed=2000 + i)
        assert again.gin == first.gin, label


@pytest.mark.parametrize("bound", [2, 100])
def test_gin_matches_oracle_on_corpus(corpus, bound):
    unstable = 0
    for i, (label, ctx, I) in enumerate(corpus):
        result = generic_initial_ideal(ctx, I, trials=3, seed=5000 + i, bound=bound)
        assert result == oracle_generic_initial_ideal(ctx, I, 3, 5000 + i, bound), label
        assert result.hilbert_polynomial == hilbert_polynomial(ctx, I), label
        unstable += not result.stable
    if bound == 2:
        # small entries make some trials non-generic, so the winner is a real choice
        assert unstable > 0


def test_gin_runs_buchberger_once_per_trial(monkeypatch):
    calls = []
    reduced = []
    real = groebner._buchberger
    real_reduced = groebner.buchberger

    def counted(ctx, generators):
        calls.append(ctx)
        return real(ctx, generators)

    def counted_reduced(ctx, I):
        reduced.append(ctx)
        return real_reduced(ctx, I)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    monkeypatch.setattr(groebner, "buchberger", counted_reduced)
    generic_initial_ideal(CTX3, twisted_cubic_ideal(), trials=3, seed=5)
    assert len(calls) == 3
    # a trial reads in(J) off the unreduced basis: no reduced basis is built
    assert reduced == []
    # and an ideal is a plain value with no per-order basis cache
    assert Ideal.__slots__ == ("generators", "homogeneous")


def test_gin_trials_build_no_polynomial(monkeypatch):
    # a trial runs on the packed form: the generators are packed once per gin,
    # and no Polynomial or Ideal is built between the change and in(g·I)
    I = twisted_cubic_ideal()
    built = Counter()
    real_raw, real_init, real_ideal = Polynomial._raw.__func__, Polynomial.__init__, Ideal.__init__

    def raw(cls, terms):
        built[cls] += 1
        return real_raw(cls, terms)

    def init(self, terms=None):
        built[type(self)] += 1
        real_init(self, terms)

    def ideal(self, generators):
        built[Ideal] += 1
        real_ideal(self, generators)

    monkeypatch.setattr(Polynomial, "_raw", classmethod(raw))
    monkeypatch.setattr(Polynomial, "__init__", init)
    monkeypatch.setattr(Ideal, "__init__", ideal)
    trials, real_trial = [], gin.secondary_gin

    def trial(ctx, generators, g):
        before = sum(built.values())
        out = real_trial(ctx, generators, g)
        trials.append(sum(built.values()) - before)
        return out

    monkeypatch.setattr(gin, "secondary_gin", trial)
    generic_initial_ideal(CTX3, I, trials=3, seed=5)
    assert trials == [0, 0, 0]
    # the counters do see the Polynomial boundary of apply_change
    apply_change(CTX3, random_linear_change(CTX3, seed=5), I.generators[0])
    assert built[Polynomial] == 1


def test_gin_trial_restarts_past_the_first_packing(monkeypatch):
    # a trial packs at 2 * pack_width(3) = 4 bits, room for exponent 15; the
    # lex basis of these cubics after a change reaches x2^27, so Buchberger's
    # algorithm restarts at 8 bits on the re-packed generators
    ctx = RingContext(3, Lex())
    I = Ideal([p(t, 4) for t in ("x0*x3^2 - x1^3", "x1*x3^2 - x2^3", "x0^3 - x2*x3^2")])
    g = random_linear_change(ctx, seed=0, bound=3)
    widths, real = [], groebner._basis

    def basis(ctx, packing, generators):
        widths.append(packing.width - 1)
        return real(ctx, packing, generators)

    monkeypatch.setattr(groebner, "_basis", basis)
    restarted = secondary_gin(ctx, I, g)
    assert widths == [4, 8]
    wide = secondary_gin(ctx, [pack(ctx, f, 8) for f in I.generators], g)
    assert widths == [4, 8, 8]
    assert restarted == wide
    assert restarted == initial_ideal(ctx, Ideal([apply_change(ctx, g, f) for f in I.generators]))
    assert (0, 0, 27, 0) in restarted.min_gens


def test_gin_reads_p_and_m0_once_per_request(monkeypatch):
    calls = Counter()
    for name in ("hilbert_polynomial_of_monomial_ideal", "gotzmann_number"):

        def counted(*args, real=getattr(hilbert, name), name=name):
            calls[name] += 1
            return real(*args)

        for module in (gin, hilbert):
            monkeypatch.setattr(module, name, counted)
    result = generic_initial_ideal(CTX3, twisted_cubic_ideal(), trials=3, seed=5)
    assert calls == {"hilbert_polynomial_of_monomial_ideal": 1, "gotzmann_number": 1}
    assert (str(result.hilbert_polynomial), result.gotzmann, result.certification_degree) == (
        "3*m + 1", 4, 4
    )


# Monomials the enumerating oracle may list, summed over the degrees it builds
# an index at: about 0.1 s here.  Some draws reach m > 300, where it lists
# millions and takes up to a minute.
ENUMERATION_BUDGET = 20_000


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * (n + 1)), max_size=5)
)))
@example((2, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]))  # HF is 1, 3, 2, 0; P = 0, m = 3
@example((2, [(1, 0, 0), (0, 3, 0), (0, 1, 3)]))  # a redundant generator of degree 4
@example((3, [(3, 0, 2, 0), (2, 2, 2, 2), (3, 2, 0, 2), (0, 3, 3, 2), (3, 2, 1, 1)]))  # m = 311
def test_certification_matches_the_enumerating_oracle(drawn):
    # P, m0 and m read off the Hilbert series numerator are those that
    # inclusion-exclusion over the drawn generators counts, and, where m is
    # small enough to list, those that the loop building the index at each
    # degree finds.  J keeps every drawn generator, so a redundant one can
    # raise deg J, and many draws are not saturated
    n, gens = drawn
    ctx = RingContext(n, GrevLex())
    J = Ideal([Polynomial.monomial(g) for g in gens])
    inJ = initial_ideal(ctx, J)
    certified = gin._certify(ctx, inJ, J)
    assert certified == counting_certify(ctx, gens, J)
    _, m0, m = certified
    if sum(ctx.dim(d) for d in range(max(m0, J.max_degree()), m + 1)) <= ENUMERATION_BUDGET:
        assert gin._certify(ctx, inJ, J) == enumerating_certify(ctx, inJ, J)


SECONDARY_INPUTS = [
    "x0*x2 - x1^2",
    "x0^2; x1^2",
    "x0^2 - x1*x2; x1^3 + x2^3 - x0*x1*x2",
    "x0^2; x0*x1; x0*x2",  # not saturated: the generator degree beats Gotzmann
    "x0^3; x0^2*x1; x1^4",
    "x1^2 - x0*x2; x1*x2^2",
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SECONDARY_INPUTS),
    st.lists(st.integers(-3, 3), min_size=9, max_size=9),
)
def test_secondary_gin_keeps_the_hilbert_polynomial(text, entries):
    # generic_initial_ideal reads P, m0 and m off one trial because of this
    rows = [entries[0:3], entries[3:6], entries[6:9]]
    assume(det(rows) != 0)
    g = LinearChange(tuple(tuple(Fraction(x) for x in r) for r in rows))
    I = Ideal([p(t) for t in text.split(";")])
    moved = hilbert_polynomial_of_monomial_ideal(CTX2, secondary_gin(CTX2, I, g))
    assert moved == hilbert_polynomial(CTX2, I)


class TestBorelFixed:
    def test_square_of_linear_span(self):
        assert is_borel_fixed(CTX2, mono_ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0)))

    def test_lone_x1_square_fails(self):
        assert not is_borel_fixed(CTX2, mono_ideal(3, (0, 2, 0)))

    def test_top_variable_powers(self):
        for k in (1, 2, 5):
            assert is_borel_fixed(CTX2, mono_ideal(3, (k, 0, 0)))

    def test_redundant_generators_do_not_matter(self):
        plain = mono_ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        padded = monomial_ideal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (2, 1, 0), (1, 2, 1)])
        assert is_borel_fixed(CTX2, plain) == is_borel_fixed(CTX2, padded)

    def test_twisted_cubic_initial_not_borel(self):
        # in(TC) = (x1^2, x1*x2, x2^2) misses the move x1*x2 -> x0*x2
        assert not is_borel_fixed(CTX3, initial_ideal(CTX3, twisted_cubic_ideal()))

    def test_twisted_cubic_gin_borel(self):
        res = generic_initial_ideal(CTX3, twisted_cubic_ideal(), trials=4, seed=6)
        assert res.gin == mono_ideal(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0))
        assert is_borel_fixed(CTX3, res.gin)


class TestSecondaryGin:
    def test_identity_is_non_generic_for_the_conic(self):
        sec = secondary_gin(CTX2, conic(), identity_change(3))
        assert sec == mono_ideal(3, (0, 2, 0))
        m = certified_initial_ideal(CTX2, conic()).certification_degree
        index = index_at_degree(CTX2, sec, m)
        assert index.monomials == ((0, 2, 0),)
        primary = generic_initial_ideal(CTX2, conic(), trials=5, seed=1)
        assert index_rank(CTX2, index) > index_rank(CTX2, primary.index)

    def test_generic_change_matches_primary(self):
        primary = generic_initial_ideal(CTX2, conic(), trials=5, seed=9)
        g = random_linear_change(CTX2, seed=9)  # first trial seed
        sec = secondary_gin(CTX2, conic(), g)
        assert index_at_degree(CTX2, sec, primary.certification_degree) == primary.index

    def test_unipotent_fixes_borel_monomial_ideal(self):
        M = mono_ideal(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        rows = [[1, 3, -2], [0, 1, 5], [0, 0, 1]]
        g = LinearChange(tuple(tuple(Fraction(x) for x in r) for r in rows))
        sec = secondary_gin(CTX2, ideal_of(M), g)
        assert sec == M


class TestBorelCellPush:
    """Upper-triangular changes can only shrink the cell index, lower ones grow it."""

    def test_upper_keeps_conic_cell(self):
        rows = [[1, 2, 7], [0, 1, -3], [0, 0, 1]]
        b = LinearChange(tuple(tuple(Fraction(x) for x in r) for r in rows))
        sec = secondary_gin(CTX2, conic(), b)
        assert sec == mono_ideal(3, (0, 2, 0))

    def test_lower_pushes_conic_cell_up(self):
        rows = [[1, 0, 0], [2, 1, 0], [5, -1, 1]]
        b = LinearChange(tuple(tuple(Fraction(x) for x in r) for r in rows))
        sec = secondary_gin(CTX2, conic(), b)
        assert sec == mono_ideal(3, (2, 0, 0))

    def test_monomial_span_push(self):
        ctx = RingContext(1, GrevLex())
        f = parse_polynomial("x0*x1", 2)
        upper = LinearChange(((Fraction(1), Fraction(4)), (Fraction(0), Fraction(1))))
        lower = LinearChange(((Fraction(1), Fraction(0)), (Fraction(4), Fraction(1))))
        up = subspace_from_polynomials(ctx, 2, [apply_change(ctx, upper, f)])
        down = subspace_from_polynomials(ctx, 2, [apply_change(ctx, lower, f)])
        assert schubert_cell_index(ctx, up).monomials == ((1, 1),)
        assert schubert_cell_index(ctx, down).monomials == ((2, 0),)


class TestWeightVector:
    def test_conic_inequality(self):
        gb = buchberger(CTX2, conic())
        w = weight_vector_for_order(CTX2, gb)
        assert 2 * w.omega[1] > w.omega[0] + w.omega[2]
        assert all(x >= 0 for x in w.omega)

    def test_monomial_basis_gives_zero(self):
        gb = buchberger(CTX2, Ideal([p("x0^2"), p("x1*x2")]))
        assert weight_vector_for_order(CTX2, gb) == WeightVector((0, 0, 0))

    def test_lex_linear_form(self):
        ctx = RingContext(1, Lex())
        gb = buchberger(ctx, Ideal([parse_polynomial("x0 + x1", 2)]))
        w = weight_vector_for_order(ctx, gb)
        assert w.omega[0] > w.omega[1]

    def test_separates_twisted_cubic(self):
        gb = buchberger(CTX3, twisted_cubic_ideal())
        w = weight_vector_for_order(CTX3, gb)
        for f in gb:
            lead, _ = f.leading(CTX3)
            lead_w = sum(a * b for a, b in zip(w.omega, lead))
            for e in f.terms:
                if e != lead:
                    assert lead_w > sum(a * b for a, b in zip(w.omega, e))


@st.composite
def small_homogeneous_ideals(draw):
    """(ring, ideal, m): up to three forms of degree 1-3 with up to four terms, in P^1 or P^2."""
    n = draw(st.integers(1, 2))
    ctx = RingContext(n, draw(st.sampled_from([GrevLex(), Lex()])))
    coefficient = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mons = ctx.monomials(draw(st.integers(1, 3)))
        terms = st.dictionaries(st.sampled_from(mons), coefficient, min_size=1, max_size=4)
        gens.append(Polynomial(draw(terms)))
    return ctx, Ideal(gens), draw(st.integers(1, 4))


class TestOnePsLimit:
    @settings(deadline=None, max_examples=150)
    @given(small_homogeneous_ideals())
    @example((CTX2, conic(), 2))
    @example((CTX2, conic(), 3))
    @example((CTX2, Ideal([p("x0^2"), p("x0*x1"), p("x1^2")]), 2))  # omega = 0, vacuous
    def test_torus_limit_is_the_initial_subspace(self, case):
        # with omega weighting the reduced basis as the order does, the limit
        # under t^omega of the degree-m Hilbert point is its initial subspace,
        # the slice in(I)_m
        ctx, I, m = case
        omega = weight_vector_for_order(ctx, buchberger(ctx, I))
        assert one_ps_limit_check(ctx, I, m, omega)
        limit = initial_subspace(ctx, hilbert_point(ctx, I, m))
        assert limit.monomials == initial_ideal(ctx, I).graded_monomials(ctx, m)

    def test_conic_degree_two(self):
        w = weight_vector_for_order(CTX2, buchberger(CTX2, conic()))
        assert one_ps_limit_check(CTX2, conic(), 2, w)

    def test_conic_explicit_small_weights(self):
        assert one_ps_limit_check(CTX2, conic(), 2, WeightVector((1, 1, 0)))

    def test_monomial_ideal_vacuous(self):
        I = Ideal([p("x0^2"), p("x0*x1"), p("x1^2")])
        assert one_ps_limit_check(CTX2, I, 2, WeightVector((0, 0, 0)))

    def test_conic_degree_three_exhaustive(self):
        w = weight_vector_for_order(CTX2, buchberger(CTX2, conic()))
        assert one_ps_limit_check(CTX2, conic(), 3, w)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_exchange_matches_exhaustive_minors(self, data):
        n = data.draw(st.integers(1, 2))
        m = data.draw(st.integers(1, 3))
        ctx = RingContext(n, GrevLex())
        mons = ctx.monomials(m)
        term = st.tuples(st.sampled_from(mons), st.integers(-3, 3).filter(bool))
        forms = data.draw(st.lists(st.lists(term, min_size=1, max_size=3), max_size=4))
        I = Ideal([Polynomial(dict(f)) for f in forms])
        omega = data.draw(st.tuples(*[st.integers(0, 4)] * ctx.nvars))
        F = hilbert_point(ctx, I, m)
        expected = exhaustive_limit_oracle(F, omega)
        assert one_ps_limit_check(ctx, I, m, WeightVector(omega)) == expected
