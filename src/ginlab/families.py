"""Seeded random forms, ideal families and integer point sets for experiments."""

from __future__ import annotations

import random
from math import gcd, prod

from . import linalg
from .grassmann import SubspaceBasis, subspace_from_vectors
from .groebner import Ideal
from .orders import RingContext
from .poly import Polynomial

_MASK = (1 << 63) - 1


def derive_seed(seed: int, *parts: int) -> int:
    """Stable integer mix for namespaced substream seeds."""
    h = seed & _MASK
    for p in parts:
        h = (h * 1_000_003 + p + 0x9E3779B9) & _MASK
    return h


def random_form(ctx: RingContext, degree: int, rng: random.Random, bound: int = 100) -> Polynomial:
    """Dense random form with integer coefficients in [-bound, bound], never zero."""
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    monomials = ctx.monomials(degree)
    while True:
        f = Polynomial({e: rng.randint(-bound, bound) for e in monomials})
        if f:
            return f


def random_ideal(ctx: RingContext, degrees, rng: random.Random, bound: int = 100) -> Ideal:
    return Ideal([random_form(ctx, d, rng, bound) for d in degrees])


def random_points(
    ctx: RingContext, count: int, rng: random.Random, bound: int = 100
) -> list[tuple[int, ...]]:
    """Pairwise distinct random points of the projective space, in integer coordinates.

    Raises ValueError when bound < 1 or when fewer than `count` points have
    coordinates in [-bound, bound]; the (2 bound + 1)^n points (1, a_1, ..., a_n)
    are among them, so the exact number is needed only above that.
    """
    if bound < 1:
        raise ValueError("coordinate bound must be at least 1")
    if count > (2 * bound + 1) ** ctx.n and count > (total := _point_count(ctx.n, bound)):
        raise ValueError(f"P^{ctx.n} has only {total} points with |coordinates| <= {bound}")
    points: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()  # primitive representatives, first nonzero entry > 0
    while len(points) < count:
        p = tuple(rng.randint(-bound, bound) for _ in range(ctx.nvars))
        if not any(p):
            continue
        g = gcd(*p) if next(c for c in p if c) > 0 else -gcd(*p)
        q = tuple(c // g for c in p)
        if q not in seen:
            seen.add(q)
            points.append(p)
    return points


def _point_count(n: int, b: int) -> int:
    """Points of P^n with coordinates in [-b, b], by Möbius inversion over their gcd k.

    (1/2) sum_{k=1..b} mu(k) ((2 floor(b/k) + 1)^(n+1) - 1)
    """
    mu = [0, 1] + [0] * (b - 1)  # from sum_{d | k} mu(d) = 0 for k > 1
    for k in range(1, b + 1):
        for j in range(2 * k, b + 1, k):
            mu[j] -= mu[k]
    return sum(mu[k] * ((2 * (b // k) + 1) ** (n + 1) - 1) for k in range(1, b + 1)) // 2


def evaluations(ctx: RingContext, points, m: int) -> list[list[int]]:
    """The evaluation matrix: a row per point, its value at each of ``ctx.monomials(m)``."""
    cols = ctx.monomials(m)
    return [[prod(c**k for k, c in zip(u, pt) if k) for u in cols] for pt in points]


def points_hilbert_point(ctx: RingContext, points, m: int) -> SubspaceBasis:
    """Degree-m forms vanishing at the points: the kernel of the evaluation matrix, canonicalized."""
    return subspace_from_vectors(ctx, m, linalg.kernel(evaluations(ctx, points, m), ctx.dim(m)))
