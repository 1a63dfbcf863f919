"""Hilbert points as canonical matrices, Schubert indices, Plücker minors.

A degree-m subspace is stored as a reduced row echelon matrix whose columns
are the degree-m monomials in descending order, so the pivot columns realise
the initial subspace and the maximal nonvanishing Plücker index directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import linalg
from .groebner import Ideal, coefficient_rows, graded_basis_matrix
from .orders import Monomial, RingContext, unit

EQUAL = "equal"
ABOVE = "above"
BELOW = "below"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class SchubertIndex:
    """Strictly descending tuple of equal-degree monomials naming a cell."""

    monomials: tuple[Monomial, ...]

    @property
    def d(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def as_strings(self) -> list[str]:
        from .parsing import monomial_str

        return [monomial_str(m) for m in self.monomials]


def make_index(ctx: RingContext, monomials: Iterable[Monomial]) -> SchubertIndex:
    mons = tuple(tuple(m) for m in monomials)
    key = ctx.key
    for a, b in zip(mons, mons[1:]):
        if key(a) >= key(b):
            raise ValueError("index monomials must be strictly descending")
    if len({sum(m) for m in mons}) > 1:
        raise ValueError("index monomials must have one degree")
    for m in mons:
        ctx.check(m)
    return SchubertIndex(mons)


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


def subspace_from_polynomials(ctx: RingContext, m: int, polys) -> SubspaceBasis:
    """Canonicalize spanning degree-m forms; raises ValueError on a term of another degree."""
    one = unit(ctx.nvars)
    return subspace_from_vectors(ctx, m, coefficient_rows(ctx, m, ((one, f) for f in polys)))


def hilbert_point(ctx: RingContext, I: Ideal, m: int) -> SubspaceBasis:
    """The degree-m slice of I as a canonical subspace of the degree-m forms."""
    reduced, pivots, cols = graded_basis_matrix(ctx, I, m)
    return SubspaceBasis(m=m, columns=cols, matrix=reduced, pivots=pivots)


def initial_subspace(ctx: RingContext, F: SubspaceBasis) -> SchubertIndex:
    """Pivot monomials of the canonical matrix, i.e. the span of leading terms."""
    return make_index(ctx, (F.columns[c] for c in F.pivots))


def pluecker_coordinate(F: SubspaceBasis, idx: SchubertIndex) -> Fraction:
    """The d x d minor of the canonical matrix on the columns named by idx."""
    if idx.d != F.d:
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


def schubert_cell_index(ctx: RingContext, F: SubspaceBasis) -> SchubertIndex:
    """The unique index with nonzero minor whose lex-larger minors all vanish.

    For a canonical matrix this is the pivot index; the pivot minor is the
    identity, which is checked here, and the vanishing of all lex-larger
    minors is a rank property of the echelon form.
    """
    idx = initial_subspace(ctx, F)
    if pluecker_coordinate(F, idx) != 1:
        raise AssertionError("canonical pivot minor must be 1")
    return idx


class IndexComparison(NamedTuple):
    lex: int  # -1 / 0 / +1 on the monomial tuples
    partial: str  # componentwise: equal / above / below / incomparable


def index_rank(ctx: RingContext, idx: SchubertIndex) -> tuple[int, ...]:
    """The places of the index monomials in ``ctx.monomials(m)``.

    Of two indices of one size, the lex-larger has the lex-smaller rank.
    """
    if not idx.monomials:
        return ()
    place = ctx.positions(sum(idx.monomials[0]))
    return tuple(place[u] for u in idx.monomials)


def compare_indices(ctx: RingContext, a: SchubertIndex, b: SchubertIndex) -> IndexComparison:
    if a.d != b.d:
        raise ValueError("indices have different sizes")
    ra, rb = index_rank(ctx, a), index_rank(ctx, b)
    signs = {(x < y) - (x > y) for x, y in zip(ra, rb)} - {0}
    if not signs:
        partial = EQUAL
    elif signs == {1}:
        partial = ABOVE
    elif signs == {-1}:
        partial = BELOW
    else:
        partial = INCOMPARABLE
    return IndexComparison((ra < rb) - (ra > rb), partial)


def index_weight(idx: SchubertIndex, weights) -> int:
    """Total weight of the index monomials under the given weight vector."""
    weights = tuple(weights)
    total = 0
    for m in idx.monomials:
        if len(m) != len(weights):
            raise ValueError("weight vector does not match the monomials")
        total += sum(w * e for w, e in zip(weights, m))
    return total


def max_index(ctx: RingContext, m: int, d: int) -> SchubertIndex:
    """The top d monomials of degree m in descending order."""
    chain = ctx.monomials(m)
    if not 0 <= d <= len(chain):
        raise ValueError(f"index size {d} out of range 0..{len(chain)}")
    return SchubertIndex(tuple(chain[:d]))
