"""Multivariate division, Buchberger's algorithm, initial ideals, graded pieces.

Polynomials carry `Fraction` coefficients at the API, but division and
Buchberger's algorithm run on Python ints.  A basis element is kept as its
primitive integer multiple with positive leading coefficient, and division is
fraction-free: the working polynomial is scaled by lc/gcd(c, lc) instead of
dividing by lc, as in Bareiss elimination.  The next term to cancel comes off
a heap of the working polynomial's monomials (Monagan and Pearce, "Sparse
polynomial division using a heap", 2011) instead of a scan for the maximum.
Each integer remainder is a positive multiple of the rational one, so the
pair sequence and the reduced basis are those of rational arithmetic.
`initial_ideal` reads the minimal leads of the unreduced integer basis, and
`Fraction` is built only for the monic reduced basis.

Buchberger's algorithm skips the S-pairs that must reduce to zero by
Traverso's Hilbert-driven criterion ("Hilbert functions and the Buchberger
algorithm", JSC 1996).  Let I have r <= n + 1 homogeneous generators of
degrees d_i.  dim I_d is the rank of a Macaulay matrix in their coefficients,
largest for generic ones, which form a regular sequence; every regular
sequence of these degrees, the powers x_i^(d_i) among them, has one Hilbert
function.  So HF(S/<leads>)_d >= HF(S/I)_d >= HF(S/<x_i^(d_i)>)_d, and once
|degree_part(leads, d)| reaches |degree_part(powers, d)| the leads span
in(I)_d and every remaining pair of degree d reduces to zero.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import neg, sub

from . import linalg
from .monideal import MonomialIdeal, degree_part, minimalize
from .orders import Monomial, RingContext, coprime, div, divides, lcm, mul, unit, variable
from .poly import Polynomial

_F0 = Fraction(0)


class Ideal:
    """An immutable ideal given by its nonzero generators, homogeneous or not."""

    __slots__ = ("generators", "homogeneous")

    def __init__(self, generators):
        gens = tuple(g for g in generators if g)
        nvars = {g.nvars() for g in gens}
        if len(nvars) > 1:
            raise ValueError("generators live in different rings")
        self.generators = gens
        self.homogeneous = all(g.is_homogeneous() for g in gens)

    def is_zero(self) -> bool:
        return not self.generators

    def max_degree(self) -> int:
        return max((g.degree() for g in self.generators), default=0)

    def __repr__(self) -> str:
        inner = ", ".join(repr(g) for g in self.generators)
        return f"Ideal({inner})"


def _int_terms(f: Polynomial) -> tuple[dict[Monomial, int], Fraction]:
    """A primitive integer polynomial and the scale that maps it back to f."""
    ints, scale = linalg.primitive_int_row(tuple(f.terms.values()), len(f.terms))
    return dict(zip(f.terms, ints)), scale


def _divisor(key, f: dict[Monomial, int]):
    """(lm, lc, tail) of the primitive multiple of f with lc > 0; the tail descends."""
    terms = sorted(f.items(), key=lambda t: key(t[0]))
    g = gcd(*f.values())
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(e, c // g) for e, c in terms]
    (lm, lc), *tail = terms
    return lm, lc, tail


def _s_polynomial(fi, fj, l: Monomial) -> dict[Monomial, int]:
    """(c_j/h) x^(l-l_i) f_i - (c_i/h) x^(l-l_j) f_j with h = gcd(c_i, c_j); leads cancel."""
    (li, ci, ti), (lj, cj, tj) = fi, fj
    h = gcd(ci, cj)
    a, b = cj // h, ci // h
    ui, uj = div(l, li), div(l, lj)
    out = {mul(ui, e): a * c for e, c in ti}
    for e, c in tj:
        mm = mul(uj, e)
        v = out.get(mm, 0) - b * c
        if v:
            out[mm] = v
        else:
            del out[mm]
    return out


def _reduce(key, work: dict[Monomial, int], divisors) -> tuple[dict[Monomial, int], int]:
    """Fraction-free division of an integer polynomial by (lm, lc, tail) divisors with lc > 0.

    Returns (r, s) with s > 0 and s * work = r modulo the divisors, where no
    monomial of r is divisible by a lead.  The top term c * x^m, taken from a
    heap of the work's monomials, is cancelled by the first divisor whose lead
    divides x^m: with h = gcd(c, lc) the work and the remainder are scaled by
    lc/h, and (c/h) * x^(m - lm) * tail is subtracted.  Each step keeps work
    and remainder s times their rational counterparts, so r / s is the
    remainder of rational division.  Remainder terms are written in
    descending order, each with the scale in force when it was written.
    """
    work = dict(work)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem: list[tuple[Monomial, int, int]] = []
    s = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc, tail in divisors:
            if divides(lm, m):
                u = tuple(map(sub, m, lm))
                h = gcd(c, lc)
                a = lc // h
                if a != 1:
                    s *= a
                    work = {e: v * a for e, v in work.items()}
                b = c // h
                for e2, c2 in tail:
                    mm = mul(u, e2)
                    v = work.get(mm)
                    if v is None:
                        work[mm] = -b * c2
                        heapq.heappush(heap, (key(mm), mm))
                    else:
                        v -= b * c2
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            rem.append((m, c, s))
    return {m: c * (s // sm) for m, c, sm in rem}, s


def _regular_sequence_powers(ctx: RingContext, generators) -> list[Monomial] | None:
    """x_i^(d_i) for the generator degrees d_i; None for over n + 1 or inhomogeneous generators."""
    if len(generators) > ctx.nvars or not all(g.is_homogeneous() for g in generators):
        return None
    return [tuple(g.degree() * e for e in variable(ctx.nvars, i)) for i, g in enumerate(generators)]


def _buchberger(ctx: RingContext, generators) -> list:
    """A Groebner basis of the generators as (lm, lc, tail) divisors, not reduced.

    [] for the zero ideal and [(unit, 1, [])] for the unit ideal.  Pairs are
    taken by sugar (Giovini et al., "One sugar cube, please", 1991): a
    generator's sugar is its degree, a pair's is the larger sugar of its two
    multiples x^(l - lm) * f, and a new element takes its pair's.  For
    homogeneous input the sugar is deg l, so this is the normal strategy.

    Pairs that survive the coprime and chain criteria then meet Traverso's
    Hilbert-driven criterion (see the module docstring), when
    `_regular_sequence_powers` applies.  At the first such pair of degree d
    the deficit is counted; each new element of degree d lowers it by one,
    since its lead lies outside <leads>_d, and while it is 0 the pair's
    remainder would be 0 and it is skipped.
    Skipped pairs count as done for the chain criterion, as reduced ones do,
    so the basis and the pair order are those of the plain algorithm.
    """
    key = ctx.key
    divisors: list = []
    sugars: list[int] = []
    generators = [g for g in generators if g]
    for g in generators:
        h, _ = _reduce(key, _int_terms(g)[0], divisors)
        if h:
            divisors.append(_divisor(key, h))
            sugars.append(g.degree())
    unit_basis = [(unit(ctx.nvars), 1, [])]
    if any(sum(lm) == 0 for lm, _, _ in divisors):
        return unit_basis

    leads = [lm for lm, _, _ in divisors]
    powers = _regular_sequence_powers(ctx, generators)
    deficit_degree = deficit = -1
    heap: list = []

    def push_pairs(j: int):
        lj = leads[j]
        for i in range(j):
            l = lcm(leads[i], lj)
            sugar = sum(l) + max(sugars[i] - sum(leads[i]), sugars[j] - sum(lj))
            # smallest lcm first among equal sugar: the negated key ascends with l
            heapq.heappush(heap, (sugar, tuple(map(neg, key(l))), i, j))

    for j in range(len(divisors)):
        push_pairs(j)

    done: set[tuple[int, int]] = set()
    while heap:
        sugar, _, i, j = heapq.heappop(heap)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        if coprime(li, lj):
            continue
        l = lcm(li, lj)
        # chain criterion: both flanking pairs already handled
        skip = False
        for k in range(len(divisors)):
            if k in (i, j) or not divides(leads[k], l):
                continue
            p1 = (i, k) if i < k else (k, i)
            p2 = (j, k) if j < k else (k, j)
            if p1 in done and p2 in done:
                skip = True
                break
        if skip:
            continue
        if powers is not None:
            # homogeneous input: the sugar is deg l, and pairs come by degree
            if sugar != deficit_degree:
                deficit_degree = sugar
                deficit = (len(degree_part(ctx, powers, sugar))
                           - len(degree_part(ctx, leads, sugar)))
            if not deficit:
                continue
        h, _ = _reduce(key, _s_polynomial(divisors[i], divisors[j], l), divisors)
        if not h:
            continue
        d = _divisor(key, h)
        if sum(d[0]) == 0:
            return unit_basis
        deficit -= 1
        divisors.append(d)
        leads.append(d[0])
        sugars.append(sugar)
        push_pairs(len(divisors) - 1)
    return divisors


def buchberger(ctx: RingContext, I: Ideal) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of I for ctx.order, leads descending."""
    divisors = _buchberger(ctx, I.generators)
    # drop elements whose lead is divisible by another lead; of equal leads
    # the first is kept, since list.index finds the first
    leads = [lm for lm, _, _ in divisors]
    keep = [leads.index(u) for u in sorted(minimalize(leads), key=ctx.key)]
    reduced = []
    for i in keep:
        lm, lc, tail = divisors[i]
        others = [divisors[j] for j in keep if j != i]
        h, _ = _reduce(ctx.key, {lm: lc, **dict(tail)}, others)
        reduced.append(Polynomial._raw({e: Fraction(c, h[lm]) for e, c in h.items()}))
    return tuple(reduced)


def initial_ideal(ctx: RingContext, I: Ideal) -> MonomialIdeal:
    """Monomial ideal of leading terms: the minimal leads of any Groebner basis of I."""
    return MonomialIdeal(ctx.nvars, minimalize(lm for lm, _, _ in _buchberger(ctx, I.generators)))


def coefficient_rows(ctx: RingContext, m: int, shifted) -> list[list[Fraction]]:
    """Coefficient rows over ``ctx.monomials(m)`` of the forms x^u * g, one per (u, g) pair.

    Raises ValueError when a product term does not have degree m.
    """
    position = ctx.positions(m)
    rows = []
    for u, g in shifted:
        vec = [_F0] * len(position)
        for e, c in g.terms.items():
            k = position.get(mul(u, e))
            if k is None:
                raise ValueError("polynomial is not homogeneous of the right degree")
            vec[k] = c
        rows.append(vec)
    return rows


def graded_basis_matrix(ctx: RingContext, I: Ideal, m: int):
    """Canonical RREF rows spanning the degree-m slice of I.

    Rows come from multiplying raw generators by complementary-degree
    monomials, so this path is independent of any Groebner computation.
    Returns (rows, pivot positions, column monomials in descending order).
    """
    if m < 0:
        raise ValueError("negative degree")
    if not I.homogeneous:
        raise ValueError("graded pieces require a homogeneous ideal")
    shifted = []
    for g in I.generators:
        d = g.degree()
        if d <= m:
            shifted.extend((u, g) for u in ctx.monomials(m - d))
    cols = ctx.monomials(m)
    reduced, pivots = linalg.rref(coefficient_rows(ctx, m, shifted), len(cols))
    return reduced, pivots, cols
