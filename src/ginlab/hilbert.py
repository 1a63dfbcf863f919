"""Hilbert functions and polynomials, Gotzmann expansions, segment ideals.

The binomial expansion P(m) = sum_i C(m + a_i - i + 1, a_i) with weakly
decreasing a_i exists exactly for the Hilbert polynomials of graded ideals;
its length is the Gotzmann number, the degree at which lex segments and
Hilbert points become faithful.  The saturated lex ideal L(P) comes in closed
form from the a_i (Reeves–Stillman), checked by a numerator round trip.  A
parsed power or binomial past `_MAX_INPUT_DEGREE` raises ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .grassmann import max_index
from .groebner import Ideal, initial_ideal
from .monideal import MonomialIdeal, minimalize
from .orders import GrevLex, Monomial, RingContext
from .parsing import ParseError, parse_expression
from .poly import Polynomial

_F0 = Fraction(0)


class NotAdmissible(ValueError):
    """The polynomial has no Gotzmann binomial expansion."""


@dataclass(frozen=True)
class HilbertPolynomial:
    """Univariate rational polynomial in m, stored by ascending power coefficients."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs) -> "HilbertPolynomial":
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def constant(cls, c) -> "HilbertPolynomial":
        return cls.make([c])

    @classmethod
    def zero(cls) -> "HilbertPolynomial":
        return cls(())

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial")
        return len(self.coeffs) - 1

    def __call__(self, m) -> Fraction:
        x = Fraction(m)
        total = _F0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return HilbertPolynomial.make(
            [(a[i] if i < len(a) else _F0) + (b[i] if i < len(b) else _F0) for i in range(n)]
        )

    def __sub__(self, other: "HilbertPolynomial") -> "HilbertPolynomial":
        return self + (-other)

    def __neg__(self) -> "HilbertPolynomial":
        return HilbertPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, HilbertPolynomial):
            if not self.coeffs or not other.coeffs:
                return HilbertPolynomial.zero()
            out = [_F0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return HilbertPolynomial.make(out)
        scale = Fraction(other)
        return HilbertPolynomial.make([c * scale for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HilbertPolynomial":
        _check_input_degree("exponent", k, self)
        out = HilbertPolynomial.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for p in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[p]
            if not c:
                continue
            if p == 0:
                body = str(abs(c))
            else:
                var = "m" if p == 1 else f"m^{p}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)


_M = HilbertPolynomial.make([0, 1])


def binomial_poly(shift: int, k: int) -> HilbertPolynomial:
    """C(m + shift, k) as a polynomial in m."""
    if k < 0:
        raise ValueError("binomial order must be nonnegative")
    return _choose(HilbertPolynomial.make([shift, 1]), k)


def _choose(top: HilbertPolynomial, k: int) -> HilbertPolynomial:
    """C(top, k) = top (top - 1) ... (top - k + 1) / k!."""
    out = HilbertPolynomial.constant(1)
    for i in range(k):
        out = out * (top + HilbertPolynomial.constant(-i))
    return out * Fraction(1, factorial(k))


@dataclass(frozen=True)
class MacaulayRep:
    """Gotzmann expansion exponents a_1 >= ... >= a_s >= 0."""

    a: tuple[int, ...]

    @property
    def gotzmann(self) -> int:
        return len(self.a)

    def to_polynomial(self) -> HilbertPolynomial:
        terms = (binomial_poly(ai - i + 1, ai) for i, ai in enumerate(self.a, start=1))
        return sum(terms, HilbertPolynomial.zero())

    def __str__(self) -> str:
        pieces = []
        for i, ai in enumerate(self.a, start=1):
            shift = ai - i + 1
            pieces.append(f"C(m{shift:+d},{ai})" if shift else f"C(m,{ai})")
        return " + ".join(pieces) or "0"


_MAX_EXPANSION_TERMS = 500_000

# Parsed powers and binomials are built by repeated multiplication, so
# ``m^20000`` would hang.  Every test and benchmark polynomial has degree <= 4
# and ``C(m,100)`` parses in 0.07 s, so degree 100 bounds outside input.
_MAX_INPUT_DEGREE = 100


def _check_input_degree(what: str, k: int, base: HilbertPolynomial) -> None:
    degree = 0 if base.is_zero() else base.degree
    if k * max(degree, 1) > _MAX_INPUT_DEGREE:
        raise ValueError(f"{what} {k} on a degree-{degree} polynomial exceeds "
                         f"the input degree limit {_MAX_INPUT_DEGREE}")


def macaulay_rep(P: HilbertPolynomial) -> MacaulayRep:
    """Greedy symbolic Gotzmann expansion; raises NotAdmissible on failure."""
    a: list[int] = []
    remainder = P
    i = 1
    while not remainder.is_zero():
        d = remainder.degree
        lead = remainder.coeffs[-1]
        if lead < 0:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        block = lead * factorial(d)
        if block.denominator != 1:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        b = int(block)
        if i + b > _MAX_EXPANSION_TERMS:
            raise ValueError(f"Gotzmann expansion of {P} exceeds {_MAX_EXPANSION_TERMS} terms")
        if d == 0:
            # remainder is a positive integer constant: that many trailing zeros
            a.extend([0] * b)
            break
        # the b terms of degree d at once: C(m+d-i+1, d) + ... + C(m+d-i-b+2, d)
        # telescopes to C(m+d-i+2, d+1) - C(m+d-i-b+2, d+1)
        a.extend([d] * b)
        remainder += binomial_poly(d - i - b + 2, d + 1) - binomial_poly(d - i + 2, d + 1)
        i += b
    return MacaulayRep(tuple(a))


def gotzmann_number(P: HilbertPolynomial) -> int:
    return macaulay_rep(P).gotzmann


def _numerator(gens) -> list[int]:
    """Coefficients of K(t), where HS(S/M) = K(t) / (1 - t)^(n+1).

    Bigatti's pivot recursion K(M) = K(M + (p)) + t^deg(p) K(M : p) with
    p = x_i^e, x_i the most frequent variable and e the median exponent of
    x_i over the generators that are not pure powers of x_i, so p lies outside
    M and both branches have smaller generator degree sums.  Once no variable
    is shared, the generators are coprime and K = prod (1 - t^deg g).
    """
    if not gens:
        return [1]
    nv = len(next(iter(gens)))
    counts = [sum(1 for g in gens if g[i]) for i in range(nv)]
    i = max(range(nv), key=counts.__getitem__)
    if counts[i] <= 1:
        K = [1]
        for g in gens:
            d = sum(g)
            K = [a - b for a, b in zip(K + [0] * d, [0] * d + K)]
        return K
    exps = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
    e = exps[len(exps) // 2]
    p = tuple(e if j == i else 0 for j in range(nv))
    K = _numerator(minimalize([*gens, p]))
    colon = _numerator(minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens))
    K += [0] * (len(colon) + e - len(K))
    for j, c in enumerate(colon):
        K[j + e] += c
    return K


def hilbert_function(ctx: RingContext, M: MonomialIdeal, m: int) -> int:
    """dim (S/M)_m, read off the Hilbert series numerator as sum_j K_j C(m - j + n, n)."""
    if m < 0:
        raise ValueError("negative degree")
    if M.nvars != ctx.nvars:
        raise ValueError("monomial ideal does not match the ring context")
    K = _numerator(M.min_gens)
    return sum(c * comb(m - j + ctx.n, ctx.n) for j, c in enumerate(K[: m + 1]))


def hilbert_polynomial_of_monomial_ideal(ctx: RingContext, M: MonomialIdeal) -> HilbertPolynomial:
    """Hilbert polynomial of S/M, read off the h-vector of the Hilbert series numerator.

    Writing K(t) = sum_i h_i (1 - t)^i with h_i = (-1)^i sum_j K_j C(j, i),
    the term h_i / (1 - t)^(n+1-i) contributes h_i C(m + n - i, n - i) for
    i <= n and a polynomial in t (nothing for large m) for i > n.
    """
    K = _numerator(M.min_gens)
    h = [(-1) ** i * sum(c * comb(j, i) for j, c in enumerate(K)) for i in range(ctx.n + 1)]
    terms = (c * binomial_poly(ctx.n - i, ctx.n - i) for i, c in enumerate(h) if c)
    return sum(terms, HilbertPolynomial.zero())


def hilbert_polynomial(ctx: RingContext, I: Ideal) -> HilbertPolynomial:
    """Hilbert polynomial of S/I, read off the Hilbert series numerator of its initial ideal."""
    if not I.homogeneous:
        raise ValueError("Hilbert polynomials require a homogeneous ideal")
    return hilbert_polynomial_of_monomial_ideal(ctx, initial_ideal(ctx, I))


def lex_segment_ideal(ctx: RingContext, P: HilbertPolynomial) -> Ideal:
    """Saturated lex ideal L(P) from the Gotzmann exponents (Reeves–Stillman 1997).

    With d = a_1 and b_j = #{i : a_i = j}, L(P) is generated by x_0, ...,
    x_{n-d-2}, x_{n-d-1}^(b_d + 1), x_{n-d-1}^b_d x_{n-d}^(b_{d-1} + 1), ...,
    x_{n-d-1}^b_d ... x_{n-2}^b_1 x_{n-1}^b_0.  P = C(m + n, n) gives the zero
    ideal, any other d >= n needs more variables; a round trip checks P.
    """
    return _lex_ideal(ctx, P, macaulay_rep(P).a)


def _lex_ideal(ctx: RingContext, P: HilbertPolynomial, a: tuple[int, ...]) -> Ideal:
    """`lex_segment_ideal` from the Gotzmann exponents a of P, already expanded."""
    if not a:
        return Ideal([Polynomial.constant(ctx.nvars, 1)])
    n, d = ctx.n, a[0]
    if a == (n,):
        gens = []
    elif d >= n:
        raise ValueError(f"{P} needs more variables than the ambient ring provides")
    else:
        b = Counter(a)
        gens = list(ctx.variables()[: n - d - 1])
        u = [0] * ctx.nvars
        for j in range(d, -1, -1):
            u[n - 1 - j] = b[j] + (j > 0)
            gens.append(tuple(u))
            u[n - 1 - j] = b[j]
    M = MonomialIdeal(ctx.nvars, minimalize(gens))
    if hilbert_polynomial_of_monomial_ideal(ctx, M) != P:
        raise ValueError(f"{P} needs more variables than the ambient ring provides")
    return Ideal([Polynomial.monomial(g) for g in M.gens_sorted(ctx)])


def revlex_segment(ctx: RingContext, m: int, count: int) -> tuple[Monomial, ...]:
    """The first `count` degree-m monomials in descending grevlex order."""
    return max_index(RingContext(ctx.n, GrevLex()), m, count).monomials


@dataclass(frozen=True)
class RevlexLemmaReport:
    is_segment_after: bool
    codim_before: int
    codim_after: int
    contains_corner: bool
    lemma_consistent: bool


def revlex_lemma_check(ctx: RingContext, m: int, count: int, l: int) -> RevlexLemmaReport:
    """Multiply a revlex segment by S_l and test the segment and codimension laws.

    The segment criterion says the product is again a revlex segment exactly
    when the segment reaches x_{n-1}^m; the empty segment is vacuously
    consistent.  When the corner power is present, the codimension of the
    segment is preserved by multiplication.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    segment = revlex_segment(ctx, m, count)
    corner = tuple(m if i == ctx.n - 1 else 0 for i in range(ctx.nvars))
    contains_corner = corner in segment

    # S_l * segment, descending in grevlex; one degree never divides another
    grevlex = RingContext(ctx.n, GrevLex())
    products = MonomialIdeal(ctx.nvars, frozenset(segment)).graded_monomials(grevlex, m + l)
    is_segment_after = products == revlex_segment(ctx, m + l, len(products))

    codim_before = ctx.dim(m) - count
    codim_after = ctx.dim(m + l) - len(products)

    iff_holds = count == 0 or (is_segment_after == contains_corner)
    codim_holds = (not contains_corner) or codim_before == codim_after
    return RevlexLemmaReport(
        is_segment_after=is_segment_after,
        codim_before=codim_before,
        codim_after=codim_after,
        contains_corner=contains_corner,
        lemma_consistent=iff_holds and codim_holds,
    )


def _read_binomial(sc, expr, start: int) -> HilbertPolynomial:
    sc.expect("(")
    top = expr()
    sc.expect(",")
    bottom = expr()
    sc.expect(")")
    # C(f, g) with either g a constant or f - g a constant (C(n+m, m) style)
    order = bottom if bottom.is_zero() or bottom.degree == 0 else top - bottom
    if not order.is_zero() and order.degree > 0:
        raise ParseError("binomial C(f,g) needs g or f-g constant", start)
    k = order(0)
    if k.denominator != 1 or k < 0:
        raise ParseError("binomial order must be a nonnegative integer", start)
    _check_input_degree("binomial order", int(k), top)
    return _choose(top, int(k))


def parse_hilbert_polynomial(text: str) -> HilbertPolynomial:
    """Parse expressions like ``2*m + 1`` or ``C(m+2,2) - C(m,2)``."""
    atoms = {"m": lambda sc, expr, start: _M, "C": _read_binomial}
    return parse_expression(text, HilbertPolynomial.constant, atoms, "m, a number, C(...) or '('")
