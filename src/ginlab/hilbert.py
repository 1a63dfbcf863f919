"""Hilbert functions and polynomials, Gotzmann expansions, segment ideals.

A Hilbert polynomial is a one-variable `Polynomial`, built by `make` and
printed in m by `polynomial_str`.  C(f, k) for any parsed f, the h-vector sum
and the Gotzmann expansion run on ints through one kernel, `_falling`, and
`make` takes one `Fraction` per output coefficient at the end.
The binomial expansion P(m) = sum_i C(m + a_i - i + 1, a_i) with weakly
decreasing a_i exists exactly for the Hilbert polynomials of graded ideals;
its length is the Gotzmann number, the degree at which lex segments and
Hilbert points become faithful.  The saturated lex ideal L(P) comes in closed
form from the a_i (Reeves–Stillman), checked by a numerator round trip.  The
revlex lemma on S_l times a segment is checked by counting (Eliahou–Kervaire).
A parsed power or binomial past `_MAX_INPUT_DEGREE` raises ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .groebner import Ideal, initial_ideal
from .monideal import MonomialIdeal, minimalize
from .orders import GrevLex, RingContext, pack_width, unit
from .parsing import ParseError, parse_expression, polynomial_str
from .poly import Polynomial

_F0 = Fraction(0)


class NotAdmissible(ValueError):
    """The polynomial has no Gotzmann binomial expansion."""


class HilbertPolynomial(Polynomial):
    """A `Polynomial` in the one variable m: the exponent tuple (k,) stands for m^k."""

    __slots__ = ()

    @classmethod
    def make(cls, coeffs, den: int = 1) -> "HilbertPolynomial":
        """The polynomial with coefficients c / den of m^0, m^1, ...: one `Fraction` per nonzero c."""
        return cls._raw({(k,): Fraction(c, den) for k, c in enumerate(coeffs) if c})

    @classmethod
    def constant(cls, c) -> "HilbertPolynomial":
        return cls.make([c])

    def __call__(self, m) -> Fraction:
        return sum((c * m**k for (k,), c in self.terms.items()), _F0)

    def __pow__(self, k: int) -> "HilbertPolynomial":
        _check_input_degree("exponent", k, self)
        return super().__pow__(k) if k else self.constant(1)

    def __repr__(self) -> str:
        return polynomial_str(self, _M_RING, _m_power)


# (k,) sorts as x0^k of Q[x0, x1], so the ring orders the powers of m
_M_RING = RingContext(1)


def _m_power(e: tuple[int]) -> str:
    (k,) = e
    return "1" if k == 0 else "m" if k == 1 else f"m^{k}"


def _falling(T: list[int], q: int, k: int) -> list[int]:
    """T (T - q) ... (T - (k-1) q), m^0 first: k! q^k C(f, k) for T the int coefficients of q f."""
    out = [1]
    for i in range(k):
        nxt = [(T[0] - i * q) * c for c in out] + [0] * (len(T) - 1)
        for b in range(1, len(T)):
            for a, c in enumerate(out, b):
                nxt[a] += T[b] * c
        out = nxt
    return out


def _scaled(P: HilbertPolynomial, scale: int = 1) -> tuple[list[int], int]:
    """The int coefficients of den P, m^0 first, and den: scale times P's common denominator."""
    den = scale * lcm(*(c.denominator for c in P.terms.values()))
    T = [0] * (P.degree() + 1 if P else 1)
    for (p,), c in P.terms.items():
        T[p] = c.numerator * (den // c.denominator)
    return T, den


def binomial_poly(shift: int, k: int) -> HilbertPolynomial:
    """C(m + shift, k) as a polynomial in m."""
    if k < 0:
        raise ValueError("binomial order must be nonnegative")
    return HilbertPolynomial.make(_falling([shift, 1], 1, k), factorial(k))


def _choose(top: HilbertPolynomial, k: int) -> HilbertPolynomial:
    """C(top, k) = top (top - 1) ... (top - k + 1) / k!, for any polynomial top."""
    T, q = _scaled(top)
    return HilbertPolynomial.make(_falling(T, q, k), factorial(k) * q**k)


@dataclass(frozen=True)
class MacaulayRep:
    """Gotzmann expansion exponents a_1 >= ... >= a_s >= 0."""

    a: tuple[int, ...]

    @property
    def gotzmann(self) -> int:
        return len(self.a)

    def __str__(self) -> str:
        pieces = []
        for i, ai in enumerate(self.a, start=1):
            shift = ai - i + 1
            pieces.append(f"C(m{shift:+d},{ai})" if shift else f"C(m,{ai})")
        return " + ".join(pieces) or "0"


_MAX_EXPANSION_TERMS = 500_000

# Parsed powers and binomials are built by repeated multiplication, so
# ``m^20000`` would hang.  Every test and benchmark polynomial has degree <= 4
# and ``C(m,100)`` parses in 0.002 s (2 vCPUs), so degree 100 bounds outside input.
_MAX_INPUT_DEGREE = 100


def _check_input_degree(what: str, k: int, base: HilbertPolynomial) -> None:
    degree = base.degree() if base else 0
    if k * max(degree, 1) > _MAX_INPUT_DEGREE:
        raise ValueError(f"{what} {k} on a degree-{degree} polynomial exceeds "
                         f"the input degree limit {_MAX_INPUT_DEGREE}")


def macaulay_rep(P: HilbertPolynomial) -> MacaulayRep:
    """Greedy symbolic Gotzmann expansion; raises NotAdmissible on failure."""
    # on the ints R = den * remainder: (deg P + 1)! in den makes every step integral
    R, den = _scaled(P, factorial((P.degree() if P else 0) + 1))
    a: list[int] = []
    i = 1
    while any(R):
        while not R[-1]:
            R.pop()
        d = len(R) - 1
        if R[d] < 0:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        b, rest = divmod(R[d] * factorial(d), den)
        if rest:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        if i + b > _MAX_EXPANSION_TERMS:
            raise ValueError(f"Gotzmann expansion of {P} exceeds {_MAX_EXPANSION_TERMS} terms")
        if d == 0:
            # remainder is a positive integer constant: that many trailing zeros
            a.extend([0] * b)
            break
        # the b terms of degree d at once: C(m+d-i+1, d) + ... + C(m+d-i-b+2, d)
        # telescopes to C(m+d-i+2, d+1) - C(m+d-i-b+2, d+1); both are monic in m^(d+1)
        a.extend([d] * b)
        step = den // factorial(d + 1)
        low, high = _falling([d - i - b + 2, 1], 1, d + 1), _falling([d - i + 2, 1], 1, d + 1)
        R = [r + step * (x - y) for r, x, y in zip(R, low, high)]
        i += b
    return MacaulayRep(tuple(a))


def gotzmann_number(P: HilbertPolynomial) -> int:
    return macaulay_rep(P).gotzmann


def _numerator(gens) -> list[int]:
    """Coefficients of K(t), where HS(S/M) = K(t) / (1 - t)^(n+1) and `gens` generate M minimally.

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
    # p lies outside M, so adding it drops exactly its multiples among the generators
    K = _numerator([g for g in gens if g[i] < e] + [p])
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
    K = M.numerator
    return sum(c * comb(m - j + ctx.n, ctx.n) for j, c in enumerate(K[: m + 1]))


def hilbert_polynomial_of_monomial_ideal(ctx: RingContext, M: MonomialIdeal) -> HilbertPolynomial:
    """Hilbert polynomial of S/M, read off the h-vector of the Hilbert series numerator.

    Writing K(t) = sum_i h_i (1 - t)^i with h_i = (-1)^i sum_j K_j C(j, i),
    the term h_i / (1 - t)^(n+1-i) contributes h_i C(m + n - i, n - i) for
    i <= n and a polynomial in t (nothing for large m) for i > n.
    """
    K, n = M.numerator, ctx.n
    total = [0] * (n + 1)  # n! P, as n! C(m + n - i, n - i) = n!/(n-i)! (m + n - i) ... (m + 1)
    for i in range(n + 1):
        h = (-1) ** i * sum(c * comb(j, i) for j, c in enumerate(K))
        h *= factorial(n) // factorial(n - i)
        for p, c in enumerate(_falling([n - i, 1], 1, n - i)):
            total[p] += h * c
    return HilbertPolynomial.make(total, factorial(n))


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
    M = _lex_ideal(ctx, P, macaulay_rep(P).a)
    return Ideal([Polynomial.monomial(g) for g in M.gens_sorted(ctx)])


def _lex_ideal(ctx: RingContext, P: HilbertPolynomial, a: tuple[int, ...]) -> MonomialIdeal:
    """L(P) as a monomial ideal, from the Gotzmann exponents a of P, already expanded."""
    n = ctx.n
    if not a:
        gens = [unit(ctx.nvars)]
    elif a == (n,):
        gens = []
    elif (d := a[0]) >= n:
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
    return M


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

    Counted, not enumerated: the top C(m+j, j) degree-m monomials in grevlex
    are those in x_0..x_j, so the segment reaches x_{n-1}^m iff count >=
    C(m+n-1, n-1), and, being strongly stable, |S_l * segment| = sum over u of
    C(l + n - max(u), l) (Eliahou–Kervaire).  N monomials are the top segment
    iff their smallest, here min(segment) * x_n^l, has place N - 1.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    n, top = ctx.n, ctx.dim(m)
    if not 0 <= count <= top:
        raise ValueError(f"index size {count} out of range 0..{top}")
    size, contains_corner, is_segment_after = 0, False, True
    if count:
        # the sum over u, by parts over j = max(u): C(l+n-j, l) - C(l+n-j-1, l) = C(l+n-j-1, l-1)
        size = sum(min(count, comb(m + j, j)) * comb(l + n - j - 1, l - 1) for j in range(n + 1))
        contains_corner = count >= comb(m + n - 1, n - 1)
        grevlex, bits = RingContext(n, GrevLex()), pack_width(m + l)
        smallest = grevlex.packs(m, bits)[count - 1] + grevlex.packs(l, bits)[-1]
        is_segment_after = smallest == grevlex.packs(m + l, bits)[size - 1]

    codim_before = top - count
    codim_after = ctx.dim(m + l) - size

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
    order = bottom if not bottom or bottom.degree() == 0 else top - bottom
    if order and order.degree() > 0:
        raise ParseError("binomial C(f,g) needs g or f-g constant", start)
    k = order(0)
    if k.denominator != 1 or k < 0:
        raise ParseError("binomial order must be a nonnegative integer", start)
    _check_input_degree("binomial order", int(k), top)
    return _choose(top, int(k))


def parse_hilbert_polynomial(text: str) -> HilbertPolynomial:
    """Parse expressions like ``2*m + 1`` or ``C(m+2,2) - C(m,2)``."""
    atoms = {"m": lambda sc, expr, start: HilbertPolynomial.make([0, 1]), "C": _read_binomial}
    return parse_expression(text, HilbertPolynomial.constant, atoms, "m, a number, C(...) or '('")
