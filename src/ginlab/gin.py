"""Generic initial ideals, secondary gins and Borel fixedness.

A secondary gin is in(g·I) for one change g.  A change of coordinates keeps
the Hilbert polynomial P and the generator degrees, so P, its Gotzmann number
and the certification degree belong to I and are read once per gin, off the
first trial.  The three depend on in(g·I) and deg I alone, so they, like the
Hilbert series numerator of in(g·I), are computed once per distinct generator
set per process: a strata member or gin whose initial ideal was already seen
is certified by one lookup.  The generic initial ideal is the trial whose
Schubert index at the certification degree is lex-maximal among `trials`
seeded random changes.
A gin packs I's generators once, and its trials are packed end to end, from
`apply_change` to `initial_ideal`: the only `Polynomial`s are I's, for the report.
Each g·f is one Horner walk down f's degrees, so a form of any degree keeps a flat stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .grassmann import SchubertIndex
from .groebner import Ideal, initial_ideal
from .hilbert import HilbertPolynomial, gotzmann_number, hilbert_function
from .hilbert import hilbert_polynomial_of_monomial_ideal
from .monideal import MonomialIdeal, degree_part, saturate, slice_monomials
from .orders import RingContext, pack_width
from .poly import LinearChange, Packed, apply_change, pack


@dataclass(frozen=True)
class GinResult:
    """Certified generic initial ideal with the winning coordinate change."""

    gin: MonomialIdeal
    index: SchubertIndex
    witness: LinearChange
    trials: int
    stable: bool
    certification_degree: int
    hilbert_polynomial: HilbertPolynomial
    gotzmann: int


class SecondaryGin(NamedTuple):
    """in(J) with the degree that certifies J."""

    initial: MonomialIdeal
    certification_degree: int


def random_linear_change(ctx: RingContext, seed: int, bound: int = 100) -> LinearChange:
    """Deterministic random integer matrix in [-bound, bound], resampled until invertible."""
    if bound < 2:
        raise ValueError("coefficient bound must be at least 2")
    rng = random.Random(seed)
    nv = ctx.nvars
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(nv)] for _ in range(nv)]
        try:
            return LinearChange(tuple(tuple(r) for r in rows))
        except ValueError:  # singular: draw again
            continue


def index_at_degree(ctx: RingContext, M: MonomialIdeal, m: int) -> SchubertIndex:
    """Schubert index of the degree-m slice of a monomial ideal."""
    return SchubertIndex(M.graded_monomials(ctx, m))


def _certify(ctx: RingContext, inJ: MonomialIdeal, J: Ideal) -> tuple[HilbertPolynomial, int, int]:
    """P of S/J read off in(J), its Gotzmann number m0 and the certification degree m.

    m is the least degree from max(m0, deg J) on where the Hilbert function of
    S/J equals P(m): max(m0, deg J) itself for saturated J, possibly above for
    J that is not saturated, where J agrees with its saturation.  Both are read
    off the Hilbert series numerator of in(J), once per (ctx, in(J), deg J):
    deg J is in the key, as a redundant generator of J can raise m.
    """
    return _certified(ctx, inJ, J.max_degree())


@lru_cache(maxsize=None)
def _certified(ctx: RingContext, inJ: MonomialIdeal, top: int) -> tuple[HilbertPolynomial, int, int]:
    P = hilbert_polynomial_of_monomial_ideal(ctx, inJ)
    m0 = gotzmann_number(P)
    m = max(m0, top)
    while hilbert_function(ctx, inJ, m) != P(m):
        m += 1
    return P, m0, m


def certified_initial_ideal(ctx: RingContext, J: Ideal) -> SecondaryGin:
    """in(J) and the certification degree m of J."""
    if not J.homogeneous:
        raise ValueError("Hilbert polynomials require a homogeneous ideal")
    inJ = initial_ideal(ctx, J)
    return SecondaryGin(inJ, _certify(ctx, inJ, J)[2])


def _packed(ctx: RingContext, I: Ideal) -> list[Packed]:
    """I's generators packed at 2 * pack_width(deg I) bits for g·I, whose exponents reach deg I."""
    if not I.homogeneous:
        raise ValueError("secondary gins require a homogeneous ideal")
    bits = 2 * pack_width(I.max_degree())
    return [pack(ctx, f, bits) for f in I.generators]


def secondary_gin(ctx: RingContext, I: Ideal | list[Packed], g: LinearChange) -> MonomialIdeal:
    """in(g·I), the initial ideal after the specific change g; I may come packed by `_packed`."""
    generators = _packed(ctx, I) if isinstance(I, Ideal) else I
    return initial_ideal(ctx, [apply_change(ctx, g, f) for f in generators])


def generic_initial_ideal(
    ctx: RingContext, I: Ideal, trials: int = 5, seed: int = 0, bound: int = 100
) -> GinResult:
    """The lex-maximal of `trials` secondary gins under seeded random changes.

    P, m0 and the certification degree m are read once, off the first trial
    (every g·I has the Hilbert polynomial and generator degrees of I); the
    reported result is the first trial whose Schubert index at m is
    lex-maximal, and `stable` records whether all trials agreed.  A sampled
    index can only fall below the generic one, never above it, so the maximal
    observed index is the generic index up to sampling failure.
    """
    if trials < 2:
        raise ValueError("at least two trials are required")
    if not I.homogeneous:
        raise ValueError("generic initial ideals require a homogeneous ideal")
    changes = [random_linear_change(ctx, seed + t, bound) for t in range(trials)]
    generators = _packed(ctx, I)
    initials = [secondary_gin(ctx, generators, g) for g in changes]
    P, m0, m = _certify(ctx, initials[0], I)
    # Trials compare as their index ranks, the sorted packs of their degree-m
    # slices, do: of two slices of one size, the lex-larger holds the least
    # pack in which they differ.  So no list is sorted, and two sets are kept.
    best, top, stable = 0, degree_part(ctx, initials[0].min_gens, m), True
    for t in range(1, trials):
        part = degree_part(ctx, initials[t].min_gens, m)
        if part != top:
            stable = False
            if min(part ^ top) in part:
                best, top = t, part
    del part  # free the other slice before the winner's index is read off `top`
    # The index is the degree-m slice of the generators of degree <= m, and
    # saturation ignores truncation, so saturating them gives the same ideal.
    low = frozenset(u for u in initials[best].min_gens if sum(u) <= m)
    return GinResult(
        gin=saturate(MonomialIdeal(ctx.nvars, low)),
        index=SchubertIndex(slice_monomials(ctx, top, m)),
        witness=changes[best],
        trials=trials,
        stable=stable,
        certification_degree=m,
        hilbert_polynomial=P,
        gotzmann=m0,
    )


def is_borel_fixed(ctx: RingContext, M: MonomialIdeal) -> bool:
    """Strong stability: every move x_j -> x_i with i < j stays in the ideal.

    Over the rationals this coincides with invariance under the Borel group of
    the variable chain x0 > ... > xn.
    """
    if M.nvars != ctx.nvars:
        raise ValueError("monomial ideal does not match the ring context")
    for u in M.min_gens:
        for j in range(M.nvars):
            if u[j] == 0:
                continue
            for i in range(j):
                moved = tuple(
                    e + 1 if k == i else e - 1 if k == j else e for k, e in enumerate(u)
                )
                if not M.contains(moved):
                    return False
    return True
