"""Seeded random forms, ideal families, integer point sets and subspaces for experiments."""

from __future__ import annotations

import random
from fractions import Fraction
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


def twisted_cubic_ideal() -> Ideal:
    """The net of quadrics cutting out the standard rational normal cubic in P^3."""
    x = [Polynomial.variable(4, i) for i in range(4)]
    return Ideal([
        x[0] * x[2] - x[1] * x[1],
        x[1] * x[3] - x[2] * x[2],
        x[0] * x[3] - x[1] * x[2],
    ])


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


def points_hilbert_point(ctx: RingContext, points, m: int) -> SubspaceBasis:
    """Degree-m forms vanishing at the points: the kernel of the evaluation matrix, canonicalized."""
    cols = ctx.monomials(m)
    values = [[prod(c**k for k, c in zip(u, pt)) for u in cols] for pt in points]
    return subspace_from_vectors(ctx, m, linalg.kernel(values, len(cols)))


def random_subspace(
    ctx: RingContext, m: int, d: int, rng: random.Random, bound: int = 9
) -> SubspaceBasis:
    """Random d-dimensional subspace of the degree-m forms (resampled to full rank)."""
    n_cols = ctx.dim(m)
    if not 0 <= d <= n_cols:
        raise ValueError(f"dimension {d} out of range 0..{n_cols}")
    while True:
        rows = [[Fraction(rng.randint(-bound, bound)) for _ in range(n_cols)] for _ in range(d)]
        F = subspace_from_vectors(ctx, m, rows)
        if F.d == d:
            return F
