"""Sparse multivariate polynomials over Q and linear changes of variables.

A `Polynomial` maps exponent tuples to `Fraction` coefficients.
`apply_change` clears the denominators of the matrix and of the polynomial
and expands on Python ints over packed monomials, reusing the products that
earlier calls with the same `LinearChange` expanded; it builds a `Fraction`
only for its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
        return self._merged(other, False)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._merged(other, True)

    def _merged(self, other: "Polynomial", subtract: bool) -> "Polynomial":
        """self + other or self - other, merged term by term into a copy of self."""
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            if v is None:
                out[e] = -c if subtract else c
            elif v := (v - c if subtract else v + c):
                out[e] = v
            else:
                del out[e]
        return self._raw(out)

    def __neg__(self) -> "Polynomial":
        return self._raw({e: -c for e, c in self.terms.items()})

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

    def leading(self, ctx: RingContext) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial")
        e = ctx.descending(self.terms)[0]
        return e, self.terms[e]

    def __repr__(self) -> str:
        from .parsing import polynomial_str

        return polynomial_str(self)


@dataclass(frozen=True)
class LinearChange:
    """Invertible substitution x_i -> sum_j matrix[i][j] * x_j.

    The standard Borel for the variable chain x0 > ... > xn is upper
    triangular, its opposite lower triangular; either is read off the matrix.

    A change also keeps, for each packing, the table of products y^e that
    `apply_change` has expanded, so the generators of an ideal share them.
    The table is not a field: equality, hashing and repr see only the matrix.
    It holds pure functions of the matrix, so concurrent calls that fill it
    write equal values.
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
        # packing -> {prefix e: packed y^e}, filled by apply_change
        object.__setattr__(self, "_products", {})

    @property
    def nvars(self) -> int:
        return len(self.matrix)

def apply_change(ctx: RingContext, g: LinearChange, f: Polynomial) -> Polynomial:
    """Substitute g into f and expand; degree is preserved on homogeneous input.

    The expansion runs on integers: with D the common denominator of the
    matrix, x_i maps to y_i / D where y_i has integer coefficients, and with F
    the common denominator of f, F * f has integer coefficients.  A term of
    degree k is scaled by D^(top - k) for the top degree of f, so every term
    is D^top times its true value; one division by F * D^top at the end gives
    the result.

    Monomials are packed (``ctx.packing(pack_width(top))``), so a product of
    monomials is one int addition.  The product y^e is built one
    factor at a time and kept in g's table for that packing for every prefix
    (e_0, ..., e_k) of e, so the terms of f, and every later polynomial
    changed by g, share their common factors.
    """
    nv = ctx.nvars
    if g.nvars != nv:
        raise ValueError("change of variables does not match the ring context")
    if not f:
        return f
    top = f.degree()
    packing = ctx.packing(pack_width(top))
    D = math.lcm(*(x.denominator for row in g.matrix for x in row))
    xs = packing.scales  # the packs of x_0, ..., x_n
    images = [
        {xs[j]: x.numerator * (D // x.denominator) for j, x in enumerate(row) if x}
        for row in g.matrix
    ]
    products = g._products.setdefault(packing, {(): {0: 1}})

    def product(e: Monomial) -> dict[int, int]:
        """y_0^e_0 * ... * y_k^e_k for a prefix e of length k + 1."""
        p = products.get(e)
        if p is None:
            if e[-1]:
                p = _int_product(product(e[:-1] + (e[-1] - 1,)), images[len(e) - 1])
            else:
                p = product(e[:-1])
            products[e] = p
        return p

    F = math.lcm(*(c.denominator for c in f.terms.values()))
    out: dict[int, int] = {}
    for exps, c in f.terms.items():
        ctx.check(exps)
        c = c.numerator * (F // c.denominator) * D ** (top - sum(exps))
        for e, v in product(exps).items():
            out[e] = out.get(e, 0) + c * v
    den = F * D**top
    if den == 1:
        return Polynomial._raw({packing.decode(e): Fraction(v) for e, v in out.items() if v})
    return Polynomial._raw({packing.decode(e): Fraction(v, den) for e, v in out.items() if v})


def _int_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out
