"""Monomial ideals: minimal generators, colon, intersection, saturation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .orders import Monomial, MonomialOrder, RingContext, divides, lcm


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
    """Monomial ideal given by its (automatically minimalized) generators."""

    nvars: int
    min_gens: frozenset[Monomial]

    @classmethod
    def make(cls, nvars: int, gens) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != nvars or any(e < 0 for e in g):
                raise ValueError(f"bad monomial generator {g}")
        return cls(nvars, minimalize(gens))

    @classmethod
    def zero(cls, nvars: int) -> "MonomialIdeal":
        return cls(nvars, frozenset())

    def is_zero(self) -> bool:
        return not self.min_gens

    def contains(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.min_gens)

    def gens_sorted(self, order: MonomialOrder) -> tuple[Monomial, ...]:
        return tuple(sorted(self.min_gens, key=order.key, reverse=True))

    def graded_monomials(self, ctx: RingContext, m: int) -> tuple[Monomial, ...]:
        """Degree-m monomials inside the ideal, descending under ctx.order."""
        return tuple(u for u in ctx.monomials(m) if self.contains(u))


def colon_by_variable(M: MonomialIdeal, i: int) -> MonomialIdeal:
    """(M : x_i), the monomials u with u * x_i in M."""
    if not 0 <= i < M.nvars:
        raise ValueError(f"variable index {i} out of range")
    gens = []
    for g in M.min_gens:
        if g[i] > 0:
            gens.append(tuple(e - 1 if j == i else e for j, e in enumerate(g)))
        else:
            gens.append(g)
    return MonomialIdeal(M.nvars, minimalize(gens))


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
