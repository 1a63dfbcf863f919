"""Multivariate division, Buchberger's algorithm, initial ideals, graded pieces.

Division and Buchberger's algorithm run on Python ints, on `poly.Packed`
generators: an `Ideal`'s packed once at entry, a gin trial's as they come.  A
basis element is kept as its primitive integer multiple with positive leading
coefficient, and division is fraction-free: the working polynomial is scaled by
lc/gcd(c, lc) instead of dividing by lc, as in Bareiss elimination.  The next
term to cancel comes off a heap of the working polynomial's monomials (Monagan
and Pearce, "Sparse polynomial division using a heap", 2011) instead of a scan
for the maximum.  Each integer remainder is a positive multiple of the rational
one, so the pair sequence and the reduced basis are those of rational
arithmetic.  `initial_ideal` reads the minimal leads of the unreduced integer
basis, and `Fraction` is built only for the monic reduced basis.

Inside Buchberger's algorithm a polynomial is {M: int} (`RingContext.packing`);
an exponent that outgrows the packing restarts the run at twice the width.
Divisions stop at their lead, the only term read, leaving tails unreduced:
leads may come in another order than full division's, in(I) cannot change.

Buchberger's algorithm skips the S-pairs that must reduce to zero by
Traverso's Hilbert-driven criterion ("Hilbert functions and the Buchberger
algorithm", JSC 1996).  For r <= n + 1 homogeneous generators of degrees d_i,
dim I_d is the rank of a Macaulay matrix in their coefficients, largest for
generic ones; these form a regular sequence, and every regular sequence of
these degrees, the powers x_i^(d_i) among them, has one Hilbert function.  So
HF(S/<leads>)_d >= HF(S/I)_d >= HF(S/<x_i^(d_i)>)_d, and once the outer two
meet the leads span in(I)_d and every remaining pair of degree d reduces to
zero.  Both sides are read by `hilbert.hilbert_function` off cached numerators.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from math import gcd

from . import linalg
from .monideal import MonomialIdeal, minimalize
from .orders import Monomial, RingContext, divides, lcm, mul, pack_width, unit
from .poly import Packed, Polynomial, _primitive, pack

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


def _divisor(f: dict[int, int]):
    """(lm, lc, tail) of the primitive multiple of packed f with lc > 0; the tail descends."""
    (lm, lc), *tail = sorted(_primitive(f)[0].items())
    return lm, lc, tail


def _s_polynomial(fi, fj, l: int) -> dict[int, int]:
    """(c_j/h) x^(l-l_i) f_i - (c_i/h) x^(l-l_j) f_j with h = gcd(c_i, c_j); leads cancel."""
    (li, ci, ti), (lj, cj, tj) = fi, fj
    h = gcd(ci, cj)
    a, b = cj // h, ci // h
    ui, uj = l - li, l - lj
    out = {ui + e: a * c for e, c in ti}
    for e, c in tj:
        mm = uj + e
        v = out.get(mm, 0) - b * c
        if v:
            out[mm] = v
        else:
            del out[mm]
    return out


def _reduce(guard: int, work: dict[int, int], divisors, full: bool = False):
    """Fraction-free division of packed `work` (consumed) by (lm, lc, tail) divisors, lc > 0.

    Returns (r, s) with s > 0 and s * work = r modulo the divisors.  The top
    term c * x^m, taken from a heap of the work's monomials, is cancelled by
    the first divisor whose lead divides x^m: with h = gcd(c, lc) the work and
    the remainder are scaled by lc/h, and (c/h) * x^(m - lm) * tail is
    subtracted.  r is the first term no lead divides plus the rest of the
    work, or with `full` the remainder, its terms written in descending order
    with the scale then in force.  An overflow into a `guard` bit raises OverflowError.
    """
    if any(m & guard for m in work):
        raise OverflowError("exponent outgrows the packing")
    heap = list(work)
    heapq.heapify(heap)
    rem: list[tuple[int, int, int]] = []
    s = 1
    while heap:
        m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        mg = m | guard
        for lm, lc, tail in divisors:
            if (mg - lm) & guard == guard:
                u = m - lm
                h = gcd(c, lc)
                a = lc // h
                if a != 1:
                    s *= a
                    work = {e: v * a for e, v in work.items()}
                b = c // h
                for e2, c2 in tail:
                    mm = u + e2
                    v = work.get(mm)
                    if v is None:
                        if mm & guard:
                            raise OverflowError("exponent outgrows the packing")
                        work[mm] = -b * c2
                        heapq.heappush(heap, mm)
                    else:
                        v -= b * c2
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            if not full:
                work[m] = c
                return work, s
            rem.append((m, c, s))
    return {m: c * (s // sm) for m, c, sm in rem}, s


def _bound_ideal(ctx: RingContext, generators: list[Packed]) -> MonomialIdeal | None:
    """<x_i^(d_i)>, d_i the packed generators' degrees; None for over n + 1 or inhomogeneous ones."""
    if len(generators) > ctx.nvars or not all(g.homogeneous for g in generators):
        return None
    return MonomialIdeal(ctx.nvars, frozenset(
        tuple(g.degree * e for e in x) for x, g in zip(ctx.variables(), generators)))


def _packed(ctx: RingContext, polynomials) -> list[Packed]:
    """The nonzero polynomials packed with room for d^2 (d the top exponent; Bezout)."""
    bits = 2 * pack_width(max((max(e) for f in polynomials for e in f.terms), default=0))
    return [pack(ctx, f, bits) for f in polynomials if f]


def _widened(ctx: RingContext, generators: list[Packed], run):
    """run(packing, generators) at the generators' packing, then re-packed twice as wide."""
    bits = generators[0].bits if generators else 1
    while True:
        try:
            return run(ctx.packing(bits), generators)
        except OverflowError:
            decode, encode, bits = ctx.packing(bits).decode, ctx.packing(2 * bits).encode, 2 * bits
            generators = [f._replace(terms={encode(decode(m)): c for m, c in f.terms.items()},
                                     bits=bits) for f in generators]


def _buchberger(ctx: RingContext, generators: list[Packed]) -> list:
    """A Groebner basis of the packed generators as (lm, lc, tail), not reduced; see `_basis`."""
    return _widened(ctx, generators, lambda packing, gens: _basis(ctx, packing, gens))


def _basis(ctx: RingContext, packing, generators: list[Packed]) -> list:
    """A basis of generators packed at `packing`, as (lm, lc, tail): lm a tuple, the tail packed.

    [] for the zero ideal and [(unit, 1, [])] for the unit ideal.  Pairs are
    taken by sugar (Giovini et al., "One sugar cube, please", 1991): a
    generator's sugar is its degree, a pair's is the larger sugar of its two
    multiples x^(l - lm) * f, and a new element takes its pair's.  For
    homogeneous input the sugar is deg l, so this is the normal strategy.

    Pairs that survive the coprime and chain criteria then meet Traverso's
    Hilbert-driven criterion (see the module docstring), when `_bound_ideal`
    applies.  At the first such pair of degree d the deficit
    HF(S/<leads>)_d - HF(S/bound)_d is counted; each new element of degree d
    lowers it by one, since its lead lies outside <leads>_d, and while it is 0
    the pair's remainder would be 0 and it is skipped.
    Skipped pairs count as done for the chain criterion, as reduced ones do,
    so the basis and the pair order are those of the plain algorithm.

    A pair's lcm l is formed on the tuple leads once, when the pair is pushed;
    the heap keeps M(l), and both criteria read it.  The leads are coprime
    iff M(l) is the sum of their packs, as M is linear and M(gcd) = 0 only for
    gcd = 1, and the chain criterion tests x^lm_k | x^l on the packs.
    """
    guard, encode = packing.guard, packing.encode
    divisors: list = []
    leads: list[Monomial] = []
    ecarts: list[int] = []  # sugar minus lead degree
    for g in generators:
        h, _ = _reduce(guard, dict(g.terms), divisors)  # a copy: a restart re-packs g
        if h:
            divisors.append(_divisor(h))
            leads.append(packing.decode(divisors[-1][0]))
            ecarts.append(g.degree - sum(leads[-1]))
    unit_basis = [(unit(ctx.nvars), 1, [])]
    if any(sum(lm) == 0 for lm in leads):
        return unit_basis

    from .hilbert import hilbert_function  # hilbert imports this module

    bound = _bound_ideal(ctx, generators)
    # a new lead is divisible by no earlier one, so the minimal leads only lose those it divides
    kept = minimalize(leads)
    deficit_degree = deficit = -1
    heap: list = []

    def push_pairs(j: int):
        lj, ej = leads[j], ecarts[j]
        for i in range(j):
            l = lcm(leads[i], lj)
            # smallest lcm first among equal sugar: -M(l) ascends with l
            heapq.heappush(heap, (sum(l) + max(ecarts[i], ej), -encode(l), i, j))

    for j in range(len(divisors)):
        push_pairs(j)

    done: set[tuple[int, int]] = set()
    while heap:
        sugar, neg_l, i, j = heapq.heappop(heap)
        done.add((i, j))
        l = -neg_l
        if l == divisors[i][0] + divisors[j][0]:  # coprime leads
            continue
        lg = l | guard
        # chain criterion: both flanking pairs already handled
        skip = False
        for k, (lk, _, _) in enumerate(divisors):
            if (lg - lk) & guard != guard or k == i or k == j:
                continue
            p1 = (i, k) if i < k else (k, i)
            p2 = (j, k) if j < k else (k, j)
            if p1 in done and p2 in done:
                skip = True
                break
        if skip:
            continue
        if bound is not None:
            # homogeneous input: the sugar is deg l, and pairs come by degree
            if sugar != deficit_degree:
                deficit_degree = sugar
                deficit = (hilbert_function(ctx, MonomialIdeal(ctx.nvars, kept), sugar)
                           - hilbert_function(ctx, bound, sugar))
            if not deficit:
                continue
        h, _ = _reduce(guard, _s_polynomial(divisors[i], divisors[j], l), divisors)
        if not h:
            continue
        d = _divisor(h)
        lm = packing.decode(d[0])
        if sum(lm) == 0:
            return unit_basis
        deficit -= 1
        divisors.append(d)
        leads.append(lm)
        ecarts.append(sugar - sum(lm))
        kept = frozenset(u for u in kept if not divides(lm, u)) | {lm}
        push_pairs(len(divisors) - 1)
    return [(lm, lc, tail) for lm, (_, lc, tail) in zip(leads, divisors)]


def buchberger(ctx: RingContext, I: Ideal) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of I for ctx.order, leads descending."""

    def reduced(packing, generators):
        basis = _basis(ctx, packing, generators)
        # drop elements whose lead is divisible by another lead; of equal leads
        # the first is kept, since list.index finds the first
        leads = [lm for lm, _, _ in basis]
        keep = [leads.index(u) for u in ctx.descending(minimalize(leads))]
        divisors = [(packing.encode(lm), lc, tail) for lm, lc, tail in basis]
        out = []
        for i in keep:
            lm, lc, tail = divisors[i]
            others = [divisors[j] for j in keep if j != i]
            h, _ = _reduce(packing.guard, {lm: lc, **dict(tail)}, others, True)
            out.append(Polynomial._raw(
                {packing.decode(e): Fraction(c, h[lm]) for e, c in h.items()}))
        return tuple(out)

    return _widened(ctx, _packed(ctx, I.generators), reduced)


def initial_ideal(ctx: RingContext, I: Ideal | list[Packed]) -> MonomialIdeal:
    """The minimal leads of any Groebner basis of I, an `Ideal` or its generators packed."""
    generators = _packed(ctx, I.generators) if isinstance(I, Ideal) else I
    return MonomialIdeal(ctx.nvars, minimalize(lm for lm, _, _ in _buchberger(ctx, generators)))


def coefficient_rows(ctx: RingContext, m: int, shifted) -> list[list[Fraction]]:
    """Coefficient rows over ``ctx.monomials(m)`` of the forms x^u * g, one per (u, g) pair.

    Raises ValueError when a product term does not have degree m.
    """
    w = pack_width(m)
    packs, encode = ctx.packs(m, w), ctx.packing(w).encode
    rows = []
    for u, g in shifted:
        vec = [_F0] * len(packs)
        for e, c in g.terms.items():
            v = mul(u, e)
            if len(v) != ctx.nvars or sum(v) != m:
                raise ValueError("polynomial is not homogeneous of the right degree")
            vec[bisect_left(packs, encode(v))] = c
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
