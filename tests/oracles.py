"""Oracles and fixtures that the tests use and no command runs.

Each function here was once part of the library.  It now lives with the tests
because only tests call it: normal forms, index comparisons, weight vectors
and the one-parameter-subgroup limit check serve as independent checks of
what the commands compute, and the twisted cubic and random subspaces are
test inputs.  Import them as ``from oracles import ...``.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from ginlab import linalg
from ginlab.grassmann import (
    SchubertIndex,
    SubspaceBasis,
    hilbert_point,
    index_rank,
    pluecker_coordinate,
    subspace_from_vectors,
)
from ginlab.groebner import Ideal, _divisor, _int_terms, _reduce, coefficient_rows
from ginlab.hilbert import HilbertPolynomial, MacaulayRep, binomial_poly
from ginlab.monideal import MonomialIdeal, minimalize
from ginlab.orders import Monomial, RingContext, unit
from ginlab.poly import LinearChange, Polynomial

# --- polynomials, matrices and changes of variables -------------------------


def monic(ctx: RingContext, f: Polynomial) -> Polynomial:
    """f divided by its leading coefficient under ctx.order."""
    _, c = f.leading(ctx)
    return Polynomial({e: v / c for e, v in f.terms.items()})


def primitive(f: Polynomial) -> Polynomial:
    """f with denominators cleared and the integer content divided out."""
    if not f.terms:
        return f
    ints, _ = linalg.primitive_int_row(tuple(f.terms.values()), len(f.terms))
    return Polynomial(dict(zip(f.terms, ints)))


def identity(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def identity_change(nvars: int) -> LinearChange:
    return LinearChange(identity(nvars))


def mat_mul(a, b):
    """Matrix product with exact entries."""
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("matrix shapes do not match")
    cols = len(b[0]) if inner else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for row in a
    )


# --- ideals -----------------------------------------------------------------


def twisted_cubic_ideal() -> Ideal:
    """The net of quadrics cutting out the standard rational normal cubic in P^3."""
    x = [Polynomial.variable(4, i) for i in range(4)]
    return Ideal([
        x[0] * x[2] - x[1] * x[1],
        x[1] * x[3] - x[2] * x[2],
        x[0] * x[3] - x[1] * x[2],
    ])


def monomial_ideal(nvars: int, gens) -> MonomialIdeal:
    """The monomial ideal of the exponent tuples `gens`, minimalized and checked."""
    gens = [tuple(g) for g in gens]
    for g in gens:
        if len(g) != nvars or any(e < 0 for e in g):
            raise ValueError(f"bad monomial generator {g}")
    return MonomialIdeal(nvars, minimalize(gens))


def ideal_of(M: MonomialIdeal) -> Ideal:
    return Ideal([Polynomial.monomial(g) for g in M.min_gens])


def colon_by_variable(M: MonomialIdeal, i: int) -> MonomialIdeal:
    """(M : x_i), the monomials u with u * x_i in M."""
    if not 0 <= i < M.nvars:
        raise ValueError(f"variable index {i} out of range")
    gens = [tuple(e - 1 if j == i and e else e for j, e in enumerate(g)) for g in M.min_gens]
    return MonomialIdeal(M.nvars, minimalize(gens))


def reduce(ctx: RingContext, f: Polynomial, basis) -> Polynomial:
    """Normal form of f: no monomial of the result is divisible by a basis lead.

    Runs the fraction-free division of `groebner._reduce`, which Buchberger's
    algorithm uses, and maps its integer remainder back to f's scale.
    """
    basis = list(basis)
    if any(not g for g in basis):
        raise ValueError("division by a zero basis element")
    divisors = [_divisor(ctx.key, _int_terms(g)[0]) for g in basis]
    if not f:
        return f
    ints, scale = _int_terms(f)
    rem, s = _reduce(ctx.key, ints, divisors)
    num, den = scale.numerator, scale.denominator * s
    return Polynomial({e: Fraction(c * num, den) for e, c in rem.items()})


def macaulay_polynomial(rep: MacaulayRep) -> HilbertPolynomial:
    """sum_i C(m + a_i - i + 1, a_i), the polynomial whose Gotzmann expansion is `rep`."""
    terms = (binomial_poly(ai - i + 1, ai) for i, ai in enumerate(rep.a, start=1))
    return sum(terms, HilbertPolynomial.zero())


# --- subspaces and Schubert indices -----------------------------------------


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


def subspace_from_polynomials(ctx: RingContext, m: int, polys) -> SubspaceBasis:
    """Canonicalize spanning degree-m forms; raises ValueError on a term of another degree."""
    one = unit(ctx.nvars)
    return subspace_from_vectors(ctx, m, coefficient_rows(ctx, m, ((one, f) for f in polys)))


def make_index(ctx: RingContext, monomials) -> SchubertIndex:
    """The index of strictly descending monomials of one degree; raises ValueError otherwise."""
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


def initial_subspace(ctx: RingContext, F: SubspaceBasis) -> SchubertIndex:
    """Pivot monomials of the canonical matrix, i.e. the span of leading terms."""
    return make_index(ctx, (F.columns[c] for c in F.pivots))


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


EQUAL = "equal"
ABOVE = "above"
BELOW = "below"
INCOMPARABLE = "incomparable"


class IndexComparison(NamedTuple):
    lex: int  # -1 / 0 / +1 on the monomial tuples
    partial: str  # componentwise: equal / above / below / incomparable


def compare_indices(ctx: RingContext, a: SchubertIndex, b: SchubertIndex) -> IndexComparison:
    if len(a.monomials) != len(b.monomials):
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


# --- weight vectors and torus limits ----------------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative integer weights separating each basis lead from its tail."""

    omega: tuple[int, ...]


def weight_vector_for_order(ctx: RingContext, basis) -> WeightVector:
    """Nonnegative integer omega with omega . (lead - tail) > 0 for every basis element.

    Built from the defining rows of the order, scaled so the first row that
    separates each difference dominates the remaining rows; the strict
    inequalities are re-checked exactly before returning.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("weight vector needs a nonempty basis")
    diffs: list[Monomial] = []
    for f in basis:
        lead, _ = f.leading(ctx)
        for e in f.terms:
            if e != lead:
                diffs.append(tuple(a - b for a, b in zip(lead, e)))
    if not diffs:
        return WeightVector((0,) * ctx.nvars)
    rows = ctx.order.rows(ctx.nvars)
    bound = max(abs(sum(r * v for r, v in zip(row, d))) for row in rows for d in diffs)
    t = bound + 2
    omega = [0] * ctx.nvars
    scale = t ** (len(rows) - 1)
    for row in rows:
        for j, r in enumerate(row):
            omega[j] += scale * r
        scale //= t
    g = gcd(*omega)
    if g > 1:
        omega = [w // g for w in omega]
    if any(w < 0 for w in omega):
        raise RuntimeError("weight vector construction produced a negative entry")
    for d in diffs:
        if sum(w * v for w, v in zip(omega, d)) <= 0:
            raise RuntimeError("weight vector fails a strict inequality")
    return WeightVector(tuple(omega))


def one_ps_limit_check(ctx: RingContext, I: Ideal, m: int, omega: WeightVector) -> bool:
    """Exact test that the torus limit of the degree-m Hilbert point is its initial subspace.

    The nonzero Plücker coordinates of the canonical matrix F are the bases of
    its column matroid, and the limit under the weight omega is the pivot
    index exactly when that basis is the unique one of maximal weight.  By
    Brualdi's exchange bijection this holds iff every single exchange loses
    weight.  In reduced echelon form, swapping pivot column p for column e
    gives the minor +-F[row of p][e], so the test reads: every nonzero entry
    of a pivot row outside the pivot columns has strictly smaller weight than
    the row's pivot.  No determinant is taken; d == 0 is vacuously true.
    """
    F = hilbert_point(ctx, I, m)
    w = [sum(a * e for a, e in zip(omega.omega, u)) for u in F.columns]
    return all(
        w[e] < w[p]
        for row, p in zip(F.matrix, F.pivots)
        for e, x in enumerate(row)
        if x and e != p
    )
