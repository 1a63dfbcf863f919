"""Hilbert points as canonical matrices, Schubert indices, Plücker minors.

A degree-m subspace is stored as a reduced row echelon matrix whose columns
are the degree-m monomials in descending order, so the pivot columns realise
the initial subspace and the maximal nonvanishing Plücker index directly.
An index is a strictly descending run of that chain, ``ctx.monomials(m)``, so
its names and ranks are read off ``ctx.names(m)`` and ``ctx.packs(m, w)`` at
the places that one walk along the chain finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groebner import Ideal, graded_basis_matrix
from .orders import Monomial, RingContext, pack_width


@dataclass(frozen=True)
class SchubertIndex:
    """Strictly descending tuple of equal-degree monomials naming a cell."""

    monomials: tuple[Monomial, ...]

    def as_strings(self, ctx: RingContext) -> list[str]:
        """The printed monomials, read off ``ctx.names(m)``; ValueError off ctx's chain."""
        m, places = _places(ctx, self.monomials)
        names = ctx.names(m)
        return [names[k] for k in places]


def _places(ctx: RingContext, monomials: tuple[Monomial, ...]) -> tuple[int, list[int]]:
    """The degree m of `monomials` and where they sit on ``ctx.monomials(m)``, in one walk.

    Raises ValueError unless they are a strictly descending run of that chain.
    """
    if not monomials:
        return 0, []
    m = sum(monomials[0])
    chain, places, k = ctx.monomials(m), [], 0
    for u in monomials:
        try:
            k = chain.index(u, k) + 1
        except ValueError:
            raise ValueError(f"index monomial {u} does not follow the ones before it "
                             f"on the descending degree-{m} chain of this ring") from None
        places.append(k - 1)
    return m, places


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical basis of a subspace of the degree-m forms.

    `matrix` is in reduced row echelon form with pivots on the earliest
    possible columns and pivot entries 1; `columns` lists the degree-m
    monomials in descending order.
    """

    m: int
    columns: tuple[Monomial, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.matrix)


def subspace_from_vectors(ctx: RingContext, m: int, vectors) -> SubspaceBasis:
    """Canonicalize spanning coefficient rows over the descending monomial columns."""
    cols = ctx.monomials(m)
    reduced, pivots = linalg.rref(vectors, len(cols))
    return SubspaceBasis(m=m, columns=cols, matrix=reduced, pivots=pivots)


def hilbert_point(ctx: RingContext, I: Ideal, m: int) -> SubspaceBasis:
    """The degree-m slice of I as a canonical subspace of the degree-m forms."""
    reduced, pivots, cols = graded_basis_matrix(ctx, I, m)
    return SubspaceBasis(m=m, columns=cols, matrix=reduced, pivots=pivots)


def pluecker_coordinate(F: SubspaceBasis, idx: SchubertIndex) -> Fraction:
    """The d x d minor of the canonical matrix on the columns named by idx."""
    if len(idx.monomials) != F.d:
        raise ValueError("index size does not match subspace dimension")
    position = {mon: k for k, mon in enumerate(F.columns)}
    try:
        cols = [position[mon] for mon in idx.monomials]
    except KeyError as bad:
        raise ValueError(f"index monomial {bad} has the wrong degree") from None
    if F.d == 0:
        return Fraction(1)
    sub = [[row[c] for c in cols] for row in F.matrix]
    return linalg.det(sub)


def index_rank(ctx: RingContext, idx: SchubertIndex) -> tuple[int, ...]:
    """The packs at ``pack_width(m)`` of the index monomials, ascending as they descend.

    Of two indices of one size, the lex-larger has the lex-smaller rank.
    """
    m, places = _places(ctx, idx.monomials)
    packs = ctx.packs(m, pack_width(m))
    return tuple([packs[k] for k in places])
