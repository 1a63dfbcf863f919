"""Sparse multivariate polynomials over Q, their packed form, and linear changes of variables.

A `Polynomial` maps exponent tuples to `Fraction` coefficients.  `pack` gives
its `Packed` form, which `apply_change` expands on Python ints by Horner's
scheme and Buchberger's algorithm reads, so a gin trial is packed end to end;
only `apply_change` of a `Polynomial` converts back to one, once, at its return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .orders import Monomial, RingContext, mul, pack_width, unit

_F0 = Fraction(0)


class Polynomial:
    """Map from exponent tuples to nonzero rational coefficients.

    Instances are treated as immutable: no method mutates `terms` after
    construction, so sharing across threads is safe.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for e, c in dict(terms).items():
                c = Fraction(c)
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction]) -> "Polynomial":
        # internal fast path: caller guarantees canonical terms
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        c = Fraction(c)
        return cls._raw({unit(nvars): c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls._raw({tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, e: Monomial, c=1) -> "Polynomial":
        c = Fraction(c)
        return cls._raw({tuple(e): c} if c else {})

    def nvars(self) -> int | None:
        for e in self.terms:
            return len(e)
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._gathered(((False, other),))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._gathered(((True, other),))

    def __neg__(self) -> "Polynomial":
        return self._raw({e: -c for e, c in self.terms.items()})

    def _gathered(self, parts) -> "Polynomial":
        """self plus each f of the (negate, f) parts, or minus f where negate, of self's class."""
        out = dict(self.terms)
        for negate, f in parts:
            for e, c in f.terms.items():
                c = -c if negate else c
                out[e] = out[e] + c if e in out else c
        return self._raw({e: c for e, c in out.items() if c})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[Monomial, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = mul(e1, e2)
                    v = out.get(e, _F0) + c1 * c2
                    if v:
                        out[e] = v
                    elif e in out:
                        del out[e]
            return self._raw(out)
        c = Fraction(other)
        if not c:
            return self.zero()
        return self._raw({e: c0 * c for e, c0 in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        nv = self.nvars()
        if nv is None:
            if k == 0:
                raise ValueError("0**0 of a polynomial with unknown arity")
            return self.zero()
        if k and len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return self._raw({tuple(k * x for x in e): c if c == 1 else c**k})
        result = self._raw({unit(nv): Fraction(1)})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __repr__(self) -> str:
        from .parsing import polynomial_str

        return polynomial_str(self)


@dataclass(frozen=True)
class LinearChange:
    """Invertible substitution x_i -> sum_j matrix[i][j] * x_j.

    The standard Borel for the variable chain x0 > ... > xn is upper
    triangular, its opposite lower triangular; either is read off the matrix.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        mat = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        if any(len(row) != n for row in mat):
            raise ValueError("change of variables must be square")
        object.__setattr__(self, "matrix", mat)
        if linalg.rank(mat, n) != n:
            raise ValueError("change of variables must be invertible")

    @property
    def nvars(self) -> int:
        return len(self.matrix)


class Packed(NamedTuple):
    """Nonzero content * sum(c * x^M), M packed at ctx.packing(bits); the ints are primitive."""

    terms: dict[int, int]  # M: c, with c > 0 at the lead, the least M
    content: Fraction
    bits: int
    degree: int
    homogeneous: bool


def _primitive(terms: dict[int, int]) -> tuple[dict[int, int], int]:
    """(terms / h, h): h the gcd of the ints, signed so that the lead's is positive."""
    h = math.gcd(*terms.values())
    if terms[min(terms)] < 0:
        h = -h
    return (terms if h == 1 else {m: c // h for m, c in terms.items()}), h


def pack(ctx: RingContext, f: Polynomial, bits: int) -> Packed:
    """Nonzero f as `Packed` at ctx.packing(bits), which must hold its exponents."""
    for e in f.terms:
        ctx.check(e)
    ints, g, den = linalg.primitive_int_row(tuple(f.terms.values()), len(f.terms))
    terms, h = _primitive(dict(zip(map(ctx.packing(bits).encode, f.terms), ints)))
    degrees = set(map(sum, f.terms))
    return Packed(terms, Fraction(g * h, den), bits, max(degrees), len(degrees) == 1)


def apply_change(ctx: RingContext, g: LinearChange, f: Polynomial | Packed):
    """g·f, of f's type: `Packed` at f's packing, which must hold exponents up to deg f.

    x_i maps to y_i / D, D the matrix's common denominator and y_i integral:
    a term of degree k is scaled by D^(d - k), d = deg f, and the content is
    divided by D^d.  The sum is taken by the multivariate Horner scheme (Peña
    and Sauer, SIAM J. Numer. Anal. 2000), a degree at a time from d down and
    without recursion: a node x^M, M a prefix of f's monomials, holds the sum
    of the scaled c * y^(e - M) over f's terms c * x^e through it, and is
    multiplied by y_i into its parent x^(M - x_i), x_i its last variable.
    """
    if isinstance(f, Polynomial):
        if not f:
            return f
        moved = apply_change(ctx, g, pack(ctx, f, pack_width(f.degree())))
        decode = ctx.packing(moved.bits).decode
        return Polynomial._raw({decode(m): moved.content * c for m, c in moved.terms.items()})
    if g.nvars != ctx.nvars:
        raise ValueError("change of variables does not match the ring context")
    packing = ctx.packing(f.bits)
    xs, w = packing.scales, packing.width  # xs: the packs of x_0, ..., x_n
    D = math.lcm(*(x.denominator for row in g.matrix for x in row))
    images = [
        {xs[j]: x.numerator * (D // x.denominator) for j, x in enumerate(row) if x}
        for row in g.matrix
    ]
    d, low, digit = f.degree, (1 << w * ctx.nvars) - 1, (1 << w) - 1
    levels: list[dict[int, dict[int, int]]] = [{} for _ in range(d + 1)]
    for m, c in f.terms.items():
        k = (m & low) % digit  # the sum of m's exponent fields, as it is at most d < 2^w - 1
        levels[k][m] = {0: c * D ** (d - k)}
    while len(levels) > 1:
        level, below = levels.pop(), levels[-1]
        for m, value in level.items():
            i = ((m & low).bit_length() - 1) // w  # x^m's last variable
            parent = below.setdefault(m - xs[i], {})
            for y, a in images[i].items():
                for e, v in value.items():
                    e += y
                    parent[e] = parent.get(e, 0) + a * v
    terms, h = _primitive({e: v for e, v in levels[0][0].items() if v})
    return f._replace(terms=terms, content=f.content * h / D**d)
