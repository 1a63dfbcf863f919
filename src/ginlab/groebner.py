"""Multivariate division, Buchberger's algorithm, initial ideals, graded pieces."""

from __future__ import annotations

import heapq
from fractions import Fraction

from . import linalg
from .monideal import MonomialIdeal, minimalize
from .orders import Monomial, RingContext, coprime, div, divides, lcm, mul
from .poly import Polynomial

_F0 = Fraction(0)


class Ideal:
    """Homogeneous-or-not ideal with a per-order cache of reduced Groebner bases."""

    __slots__ = ("generators", "homogeneous", "_gb")

    def __init__(self, generators):
        gens = tuple(g for g in generators if g)
        nvars = {g.nvars() for g in gens}
        if len(nvars) > 1:
            raise ValueError("generators live in different rings")
        self.generators = gens
        self.homogeneous = all(g.is_homogeneous() for g in gens)
        self._gb: dict = {}

    def nvars(self) -> int | None:
        return self.generators[0].nvars() if self.generators else None

    def is_zero(self) -> bool:
        return not self.generators

    def max_degree(self) -> int:
        return max((g.degree() for g in self.generators), default=0)

    def groebner_basis(self, ctx: RingContext) -> tuple[Polynomial, ...]:
        cached = self._gb.get(ctx.order)
        if cached is None:
            cached = _buchberger(ctx, self.generators)
            self._gb[ctx.order] = cached
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(repr(g) for g in self.generators)
        return f"Ideal({inner})"


def ideal_of(M: MonomialIdeal) -> Ideal:
    return Ideal([Polynomial.monomial(g) for g in M.min_gens])


def reduce(ctx: RingContext, f: Polynomial, basis) -> Polynomial:
    """Normal form of f: no monomial of the result is divisible by a basis lead."""
    return _reduce(ctx, f, list(basis))


def _reduce(ctx: RingContext, f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    if any(not g for g in basis):
        raise ValueError("division by a zero basis element")
    key = ctx.order.key
    leads = [g.leading(ctx.order) for g in basis]
    remainder: dict[Monomial, Fraction] = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for t, (lm, lc) in enumerate(leads):
            if divides(lm, m):
                u = div(m, lm)
                q = c / lc
                for e2, c2 in basis[t].terms.items():
                    if e2 == lm:
                        continue
                    mm = mul(u, e2)
                    v = work.get(mm, _F0) - q * c2
                    if v:
                        work[mm] = v
                    elif mm in work:
                        del work[mm]
                break
        else:
            remainder[m] = c
    return Polynomial._raw(remainder)


def s_polynomial(ctx: RingContext, f: Polynomial, g: Polynomial) -> Polynomial:
    mf, cf = f.leading(ctx.order)
    mg, cg = g.leading(ctx.order)
    l = lcm(mf, mg)
    return f.mul_term(div(l, mf), 1 / cf) + g.mul_term(div(l, mg), -1 / cg)


def _normalized(ctx: RingContext, f: Polynomial) -> Polynomial:
    f = f.primitive()
    if f.leading(ctx.order)[1] < 0:
        f = -f
    return f


def _buchberger(ctx: RingContext, generators) -> tuple[Polynomial, ...]:
    key = ctx.order.key
    basis: list[Polynomial] = []
    for g in generators:
        if not g:
            continue
        h = _reduce(ctx, g, basis)
        if h:
            basis.append(_normalized(ctx, h))
    if not basis:
        return ()
    nv = basis[0].nvars()
    if any(g.is_constant() for g in basis):
        return (Polynomial.constant(nv, 1),)

    leads = [g.leading(ctx.order)[0] for g in basis]
    heap: list = []

    def push_pairs(j: int):
        lj = leads[j]
        for i in range(j):
            l = lcm(leads[i], lj)
            heapq.heappush(heap, (sum(l), key(l), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    done: set[tuple[int, int]] = set()
    while heap:
        _, _, i, j = heapq.heappop(heap)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        if coprime(li, lj):
            continue
        l = lcm(li, lj)
        # chain criterion: both flanking pairs already handled
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
        s = s_polynomial(ctx, basis[i], basis[j])
        h = _reduce(ctx, s, basis)
        if not h:
            continue
        h = _normalized(ctx, h)
        if h.is_constant():
            return (Polynomial.constant(nv, 1),)
        basis.append(h)
        leads.append(h.leading(ctx.order)[0])
        push_pairs(len(basis) - 1)

    # drop elements whose lead is divisible by another lead; of equal leads
    # the first is kept, since list.index finds the first
    keep = sorted(leads.index(u) for u in minimalize(leads))
    reduced = []
    for i in keep:
        others = [basis[j] for j in keep if j != i]
        h = _reduce(ctx, basis[i], others) if others else basis[i]
        reduced.append(h.monic(ctx.order))
    reduced.sort(key=lambda g: key(g.leading(ctx.order)[0]), reverse=True)
    return tuple(reduced)


def buchberger(ctx: RingContext, I: Ideal) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of I for ctx.order (cached on I)."""
    return I.groebner_basis(ctx)


def initial_ideal(ctx: RingContext, I: Ideal) -> MonomialIdeal:
    """Monomial ideal of leading terms; generators come from the reduced basis."""
    # the leads of a reduced basis are already minimal
    gb = buchberger(ctx, I)
    return MonomialIdeal(ctx.nvars, frozenset(g.leading(ctx.order)[0] for g in gb))


def coefficient_rows(ctx: RingContext, m: int, shifted) -> list[list[Fraction]]:
    """Coefficient rows over ``ctx.monomials(m)`` of the forms x^u * g, one per (u, g) pair.

    Raises ValueError when a product term does not have degree m.
    """
    position = {mon: k for k, mon in enumerate(ctx.monomials(m))}
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


def graded_piece(ctx: RingContext, I: Ideal, m: int) -> list[Polynomial]:
    """A linearly independent basis of the degree-m slice of I (RREF rows)."""
    reduced, _, cols = graded_basis_matrix(ctx, I, m)
    return [
        Polynomial({cols[k]: c for k, c in enumerate(row) if c}) for row in reduced
    ]
