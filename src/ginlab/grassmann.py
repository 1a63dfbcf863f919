"""Hilbert points as canonical matrices, Schubert indices, Plücker minors.

A degree-m subspace is stored as a reduced row echelon matrix whose columns
are the degree-m monomials in descending order, so the pivot columns realise
the initial subspace and the maximal nonvanishing Plücker index directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .groebner import Ideal, graded_basis_matrix
from .orders import Monomial, RingContext


@dataclass(frozen=True)
class SchubertIndex:
    """Strictly descending tuple of equal-degree monomials naming a cell."""

    monomials: tuple[Monomial, ...]

    def as_strings(self) -> list[str]:
        from .parsing import monomial_str

        return [monomial_str(m) for m in self.monomials]


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
    """The places of the index monomials in ``ctx.monomials(m)``, found in one walk down it.

    Of two indices of one size, the lex-larger has the lex-smaller rank.
    """
    if not idx.monomials:
        return ()
    chain, k = ctx.monomials(sum(idx.monomials[0])), -1
    return tuple([k := chain.index(u, k + 1) for u in idx.monomials])
