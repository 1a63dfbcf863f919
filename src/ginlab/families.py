"""Seeded random forms, ideal families, integer point sets and subspaces for experiments."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

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
    monomials = ctx.monomials(degree)
    while True:
        terms = {}
        for e in monomials:
            c = rng.randint(-bound, bound)
            if c:
                terms[e] = Fraction(c)
        if terms:
            return Polynomial(terms)


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


def _proportional(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    # rank of the 2 x (n+1) matrix is < 2 iff all 2x2 minors vanish
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] * q[j] != p[j] * q[i]:
                return False
    return True


def random_points(
    ctx: RingContext, count: int, rng: random.Random, bound: int = 100
) -> list[tuple[int, ...]]:
    """Pairwise distinct random points of the projective space, in integer coordinates."""
    points: list[tuple[int, ...]] = []
    while len(points) < count:
        p = tuple(rng.randint(-bound, bound) for _ in range(ctx.nvars))
        if all(c == 0 for c in p):
            continue
        if any(_proportional(p, q) for q in points):
            continue
        points.append(p)
    return points


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
