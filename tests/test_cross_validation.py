"""Cross-checks against an independent computer algebra system and against
definition-level sampling, beyond the in-package elimination oracles."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from ginlab.grassmann import hilbert_point
from ginlab.groebner import Ideal, buchberger
from ginlab.orders import GrevLex, Lex, RingContext
from ginlab.parsing import parse_generators, parse_polynomial
from ginlab.poly import Polynomial
from oracles import initial_subspace, leading, monic


def to_sympy(f, gens):
    expr = 0
    for e, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, k in zip(gens, e):
            term *= g**k
        expr += term
    return expr


def from_sympy(expr, gens):
    poly = sympy.Poly(expr, *gens)
    terms = {}
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(x) for x in exps)] = Fraction(int(q.p), int(q.q))
    return Polynomial(terms)


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_reduced_groebner_bases_match_sympy(order_name):
    order = GrevLex() if order_name == "grevlex" else Lex()
    rng = random.Random(20240811)
    for n in (2, 3):
        ctx = RingContext(n, order)
        gens = sympy.symbols(f"x0:{ctx.nvars}")
        for _ in range(8):
            polys = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for e in ctx.monomials(rng.randint(1, 3)):
                    c = rng.randint(-3, 3)
                    if c and rng.random() < 0.5:
                        terms[e] = c
                if terms:
                    polys.append(Polynomial(terms))
            if not polys:
                continue
            ours = set(buchberger(ctx, Ideal(polys)))
            reference = sympy.groebner(
                [to_sympy(f, gens) for f in polys], *gens, order=order_name
            )
            theirs = {
                monic(ctx, from_sympy(expr, gens)) for expr in reference.exprs
            }
            assert ours == theirs


def test_twisted_cubic_matches_sympy():
    ctx = RingContext(3, GrevLex())
    gens = sympy.symbols("x0:4")
    polys = [
        parse_polynomial(t, 4)
        for t in ("x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")
    ]
    ours = set(buchberger(ctx, Ideal(polys)))
    reference = sympy.groebner([to_sympy(f, gens) for f in polys], *gens, order="grevlex")
    assert ours == {monic(ctx, from_sympy(e, gens)) for e in reference.exprs}


def test_non_homogeneous_lex_basis_matches_sympy():
    # zero-dimensional and non-homogeneous: normal pair selection ran for
    # minutes here, sugar selection takes hundredths of a second
    ctx = RingContext(3, Lex())
    gens = sympy.symbols("x0:4")
    polys = parse_generators(
        "11/2*x0*x2 + 9/2*x0*x3 + 17/5*x3^2; 27/4*x1*x2 - 4/5*x0; "
        "-6*x1^2 + 8*x2^2; 5/3*x0^2 - 6*x0*x1 - 19/5*x2",
        4,
    )
    ours = set(buchberger(ctx, Ideal(polys)))
    reference = sympy.groebner([to_sympy(f, gens) for f in polys], *gens, order="lex")
    assert ours == {monic(ctx, from_sympy(e, gens)) for e in reference.exprs}


def test_initial_subspace_is_span_of_leading_terms():
    # definition check: the pivot monomials coincide with the leading
    # monomials of (sampled) elements of the subspace
    ctx = RingContext(2, GrevLex())
    I = Ideal([parse_polynomial("x0*x2 - x1^2", 3), parse_polynomial("x1*x2 - x2^2", 3)])
    rng = random.Random(5)
    for m in (2, 3, 4):
        F = hilbert_point(ctx, I, m)
        pivots = set(initial_subspace(ctx, F).monomials)
        seen = set()
        rows = [
            Polynomial({F.columns[k]: c for k, c in enumerate(row) if c})
            for row in F.matrix
        ]
        for _ in range(100):
            combo = Polynomial.zero()
            for row in rows:
                combo = combo + row * rng.randint(-3, 3)
            if combo:
                lead, _ = leading(ctx, combo)
                seen.add(lead)
                assert lead in pivots  # leads of members never leave the pivot set
        # suffix combinations isolate each pivot in turn
        for start in range(len(rows)):
            combo = Polynomial.zero()
            for row in rows[start:]:
                combo = combo + row * (1 + rng.randint(0, 2))
            lead, _ = leading(ctx, combo)
            seen.add(lead)
            assert lead == F.columns[F.pivots[start]]
        assert seen == pivots
