"""Monomial ideals: minimal generators, degree-m slices, intersection, saturation.

The Hilbert series numerator of a monomial ideal is a function of its minimal
generators alone, so it is computed once per distinct generator set per
process, and every equal `MonomialIdeal` reads the same tuple.  The tuple ends
in a nonzero coefficient, so two ideals have the same Hilbert series iff their
numerators compare equal.  `degree_part`
packs a degree-m slice into ints for `graded_monomials` and the gin trials'
comparison; `slice_monomials` reads such a set back along the degree-m chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .orders import Monomial, RingContext, divides, lcm, pack_width


def minimalize(gens) -> frozenset[Monomial]:
    """Drop generators divisible by another generator."""
    gens = set(gens)
    minimal = set()
    for u in sorted(gens, key=sum):
        if not any(divides(v, u) for v in minimal):
            minimal.add(u)
    return frozenset(minimal)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal on its generators as given, which equality compares; the library minimalizes them."""

    nvars: int
    min_gens: frozenset[Monomial]

    @property
    def numerator(self) -> tuple[int, ...]:
        """K(t) with HS(S/M) = K(t) / (1 - t)^nvars, computed once per generator set.

        Trailing zero coefficients are dropped, so ideals with one Hilbert
        series have equal tuples; the unit ideal's is ().
        """
        return _numerator_of(self.min_gens)

    def contains(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.min_gens)

    def gens_sorted(self, ctx: RingContext) -> tuple[Monomial, ...]:
        """The generators, descending under ctx.order."""
        return tuple(ctx.descending(self.min_gens))

    def graded_monomials(self, ctx: RingContext, m: int) -> tuple[Monomial, ...]:
        """Degree-m monomials inside the ideal, descending under ctx.order."""
        return slice_monomials(ctx, degree_part(ctx, self.min_gens, m), m)


@lru_cache(maxsize=None)
def _numerator_of(min_gens: frozenset[Monomial]) -> tuple[int, ...]:
    from .hilbert import _numerator

    K = _numerator(minimalize(min_gens))
    while K and not K[-1]:
        K.pop()
    return tuple(K)


def degree_part(ctx: RingContext, gens, m: int) -> set[int]:
    """The degree-m monomials of the ideal generated by the monomials `gens`, packed.

    Packs are ``ctx.packing(pack_width(m))``, so a generator times a monomial
    is the sum of their packs.  A generator of degree above m has no
    multiples, as ``ctx.packs(m - deg, bits)`` is empty.
    """
    w = pack_width(m)
    encode = ctx.packing(w).encode
    part: set[int] = set()
    for u in gens:
        part.update(map(encode(u).__add__, ctx.packs(m - sum(u), w)))
    return part


def slice_monomials(ctx: RingContext, part: set[int], m: int) -> tuple[Monomial, ...]:
    """The degree-m monomials whose packs lie in `part`, a `degree_part`, descending under ctx.order."""
    return tuple(u for u, c in zip(ctx.monomials(m), ctx.packs(m, pack_width(m))) if c in part)


def intersect(A: MonomialIdeal, B: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcm of generators."""
    if A.nvars != B.nvars:
        raise ValueError("monomial ideals live in different rings")
    gens = [lcm(a, b) for a in A.min_gens for b in B.min_gens]
    return MonomialIdeal(A.nvars, minimalize(gens))


def saturate(M: MonomialIdeal) -> MonomialIdeal:
    """(M : (x_0,...,x_n)^infinity) as the intersection over i of (M : x_i^infinity).

    Each (M : x_i^infinity) is M with the exponent of x_i dropped from every
    generator.
    """
    colons = [
        MonomialIdeal(M.nvars, minimalize(g[:i] + (0,) + g[i + 1:] for g in M.min_gens))
        for i in range(M.nvars)
    ]
    return reduce(intersect, colons)
