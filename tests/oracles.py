"""Oracles and fixtures that the tests use and no command runs.

Each function here was once part of the library.  It now lives with the tests
because only tests call it: the factor-by-factor polynomial parser, normal
forms, the tuple sort key `order_key` of an order matrix, the tuple
Buchberger kernel and the `order_key` sort of a degree slice, the
coefficient-list Hilbert polynomial, the term-at-a-time polynomial printer,
the product-table change of coordinates, the Hilbert polynomial's own printer and constructor, the `Fraction` binomials, Gotzmann
expansion and h-vector sum, index ranks by a table of places, index
names and ranks formatted and encoded per monomial, a points sample read rank first, the
enumerating and the counting certification, index comparisons, weight vectors and the
one-parameter-subgroup limit check serve as independent checks of what the
commands compute, and the twisted cubic and random subspaces are test inputs.  Import them as ``from oracles import ...``.
"""

import functools
import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
import math
from math import comb, factorial, gcd, prod
from typing import NamedTuple

from ginlab import linalg
from ginlab.grassmann import (
    SchubertIndex,
    SubspaceBasis,
    hilbert_point,
    names_and_rank,
    pluecker_coordinate,
    subspace_from_vectors,
)
from ginlab.groebner import (
    Ideal,
    _divisor,
    _packed,
    _reduce,
    _widened,
    coefficient_rows,
)
from ginlab.gin import index_at_degree
from ginlab.hilbert import (
    _MAX_EXPANSION_TERMS,
    HilbertPolynomial,
    MacaulayRep,
    NotAdmissible,
    binomial_poly,
    gotzmann_number,
)
from ginlab.hilbert import hilbert_polynomial_of_monomial_ideal
from ginlab.monideal import MonomialIdeal, degree_part, minimalize
from ginlab.orders import Monomial, RingContext, divides, lcm, mul, pack_width, unit, variable
from ginlab.parsing import ParseError, monomial_str, parse_expression
from ginlab.poly import LinearChange, Packed, Polynomial, _primitive

# --- the tuple sort key of a monomial order ---------------------------------


@lru_cache(maxsize=None)
def order_key(order, nvars: int):
    """The sort key -rows . m of `order` on nvars variables: the larger monomial, the smaller key.

    ``sorted(mons, key=order_key(order, nvars))`` lists monomials in
    descending order, as `RingContext.descending` does by their packs.  Cached
    per (order, nvars), and each key per monomial.
    """
    rows = order.rows(nvars)

    @lru_cache(maxsize=None)
    def key(m: Monomial) -> tuple[int, ...]:
        return tuple([-sum(r * e for r, e in zip(row, m)) for row in rows])

    return key


# --- polynomials, matrices and changes of variables -------------------------


def leading(ctx: RingContext, f: Polynomial) -> tuple[Monomial, Fraction]:
    """The leading monomial of f under ctx.order and its coefficient."""
    if not f.terms:
        raise ValueError("leading term of the zero polynomial")
    e = ctx.descending(f.terms)[0]
    return e, f.terms[e]


def monic(ctx: RingContext, f: Polynomial) -> Polynomial:
    """f divided by its leading coefficient under ctx.order."""
    _, c = leading(ctx, f)
    return Polynomial({e: v / c for e, v in f.terms.items()})


def primitive(f: Polynomial) -> Polynomial:
    """f with denominators cleared and the integer content divided out."""
    if not f.terms:
        return f
    ints, _, _ = linalg.primitive_int_row(tuple(f.terms.values()), len(f.terms))
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


def product_table_apply_change(ctx: RingContext, g: LinearChange, f: Packed, products=None) -> Packed:
    """g·f by a table of the products y^e, each built from its prefix's, then summed term by term.

    y_i is the integral image of x_i, D times its row; a term of degree k is
    scaled by D^(d - k), as `apply_change` scales it.  `products`, the table
    {M(e): (packed y^e, |e|)} at f's packing, may be shared by the forms that
    one change moves, as the library once kept it on the change.
    """
    packing = ctx.packing(f.bits)
    xs, w = packing.scales, packing.width
    D = math.lcm(*(x.denominator for row in g.matrix for x in row))
    images = [
        {xs[j]: x.numerator * (D // x.denominator) for j, x in enumerate(row) if x}
        for row in g.matrix
    ]
    products = {} if products is None else products
    products.setdefault(0, ({0: 1}, 0))

    def product(m: int) -> tuple[dict[int, int], int]:
        """(y^e, |e|) for the monomial x^e packed as m."""
        p = products.get(m)
        if p is None:
            i = ((m % (1 << w * ctx.nvars)).bit_length() - 1) // w  # x^e's last variable
            q, k = product(m - xs[i])
            p = products[m] = (_int_product(q, images[i]), k + 1)
        return p

    out: dict[int, int] = {}
    for m, c in f.terms.items():
        y, k = product(m)
        c *= D ** (f.degree - k)
        for e, v in y.items():
            out[e] = out.get(e, 0) + c * v
    terms, h = _primitive({e: v for e, v in out.items() if v})
    return f._replace(terms=terms, content=f.content * h / D**f.degree)


def _int_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


def parse_polynomial_by_factors(text: str, nvars: int) -> Polynomial:
    """`parse_polynomial` before term runs: every factor is read by the general grammar.

    Each number and variable is a one-term polynomial and a term is their
    product, so any text must give `parse_polynomial`'s value, or its
    `ParseError` message and position.
    """

    def variable(sc, expr, start: int) -> Polynomial:
        idx = sc.integer()
        if idx >= nvars:
            raise ParseError(f"variable x{idx} exceeds x{nvars - 1}", start)
        return Polynomial.variable(nvars, idx)

    return parse_expression(
        text, lambda c: Polynomial.constant(nvars, c), {"x": variable}, "a variable, number or '('"
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

    Runs the packed division `groebner._reduce` in full mode, at a packing
    wide enough for f and the basis, and maps its integer remainder back to
    f's scale.
    """
    basis = list(basis)
    if any(not g for g in basis):
        raise ValueError("division by a zero basis element")
    if not f:
        return f

    def run(packing, generators):
        work, *divisors = generators
        divisors = [_divisor(dict(g.terms)) for g in divisors]
        rem, s = _reduce(packing.guard, dict(work.terms), divisors, True)
        return {packing.decode(e): c for e, c in rem.items()}, s

    packed = _packed(ctx, [f, *basis])
    rem, s = _widened(ctx, packed, run)
    scale = packed[0].content
    num, den = scale.numerator, scale.denominator * s
    return Polynomial({e: Fraction(c * num, den) for e, c in rem.items()})


# --- division and Buchberger's algorithm on exponent tuples -----------------
#
# The packed kernel of `groebner` before it packed: monomials are exponent
# tuples, the order is `order_key`, and every division runs to the full normal
# form.  The packed `_buchberger` must find the same leads in the same order.


def div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; requires divisibility."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError(f"{b} does not divide {a}")
    return q


def coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def regular_sequence_powers(ctx: RingContext, generators) -> list[Monomial] | None:
    """x_i^(d_i) for the generator degrees d_i; None for over n + 1 or inhomogeneous generators."""
    if len(generators) > ctx.nvars or not all(g.is_homogeneous() for g in generators):
        return None
    return [tuple(g.degree() * e for e in variable(ctx.nvars, i)) for i, g in enumerate(generators)]


def power_multiples_count(ctx: RingContext, degrees):
    """d -> the number of degree-d multiples of x_i^(d_i) for the degrees d_i, by inclusion-exclusion.

    The common multiples of the powers in a set T are the multiples of their
    product, so the count is sum_T (-1)^(|T|+1) dim S_(d - sum_T d_i) over the
    nonempty sets T of powers.
    """
    terms = [((-1) ** (k + 1), sum(T))
             for k in range(1, len(degrees) + 1) for T in combinations(degrees, k)]
    return lambda d: sum(sign * ctx.dim(d - s) for sign, s in terms)


def tuple_divisor(key, f: dict[Monomial, int]):
    """(lm, lc, tail) of the primitive multiple of f with lc > 0; the tail descends."""
    terms = sorted(f.items(), key=lambda t: key(t[0]))
    g = gcd(*f.values())
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(e, c // g) for e, c in terms]
    (lm, lc), *tail = terms
    return lm, lc, tail


def tuple_s_polynomial(fi, fj, l: Monomial) -> dict[Monomial, int]:
    """(c_j/h) x^(l-l_i) f_i - (c_i/h) x^(l-l_j) f_j with h = gcd(c_i, c_j); leads cancel."""
    (li, ci, ti), (lj, cj, tj) = fi, fj
    h = gcd(ci, cj)
    a, b = cj // h, ci // h
    ui, uj = div(l, li), div(l, lj)
    out = {mul(ui, e): a * c for e, c in ti}
    for e, c in tj:
        mm = mul(uj, e)
        v = out.get(mm, 0) - b * c
        if v:
            out[mm] = v
        else:
            del out[mm]
    return out


def tuple_reduce(key, work: dict[Monomial, int], divisors, full: bool = True):
    """Fraction-free division of an integer polynomial by (lm, lc, tail) divisors.

    Returns (r, s) with s > 0 and s * work = r modulo the divisors.  With
    `full`, no monomial of r is divisible by a lead; without, the division
    stops at the first top term no lead divides, as `groebner._reduce` does
    by default.
    """
    work = dict(work)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem: list[tuple[Monomial, int, int]] = []
    s = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc, tail in divisors:
            if divides(lm, m):
                u = div(m, lm)
                h = gcd(c, lc)
                a = lc // h
                if a != 1:
                    s *= a
                    work = {e: v * a for e, v in work.items()}
                b = c // h
                for e2, c2 in tail:
                    mm = mul(u, e2)
                    v = work.get(mm)
                    if v is None:
                        work[mm] = -b * c2
                        heapq.heappush(heap, (key(mm), mm))
                    else:
                        v -= b * c2
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            if not full:
                work[m] = c
                return work, s
            rem.append((m, c, s))
    return {m: c * (s // sm) for m, c, sm in rem}, s


def _int_terms(f: Polynomial) -> tuple[dict[Monomial, int], Fraction]:
    """A primitive integer polynomial and the scale that maps it back to f."""
    ints, g, den = linalg.primitive_int_row(tuple(f.terms.values()), len(f.terms))
    return dict(zip(f.terms, ints)), Fraction(g, den)


def tuple_buchberger(ctx: RingContext, generators, full: bool = True):
    """(divisors, nonzero, reductions): an unreduced basis as tuple (lm, lc, tail), the
    number of nonzero remainders and the number of divisions run, the generators' and the
    S-pairs', with the pair order, criteria and sugar of `groebner._buchberger`.

    `full` divides every remainder to its normal form, as the kernel did
    before it stopped each division at its lead.
    """
    key = order_key(ctx.order, ctx.nvars)
    divisors: list = []
    sugars: list[int] = []
    nonzero = 0
    generators = [g for g in generators if g]
    reductions = len(generators)
    for g in generators:
        h, _ = tuple_reduce(key, _int_terms(g)[0], divisors, full)
        if h:
            nonzero += 1
            divisors.append(tuple_divisor(key, h))
            sugars.append(g.degree())
    unit_basis = [(unit(ctx.nvars), 1, [])]
    if any(sum(lm) == 0 for lm, _, _ in divisors):
        return unit_basis, nonzero, reductions

    leads = [lm for lm, _, _ in divisors]
    powers = regular_sequence_powers(ctx, generators)
    deficit_degree = deficit = -1
    heap: list = []

    def push_pairs(j: int):
        lj = leads[j]
        for i in range(j):
            l = lcm(leads[i], lj)
            sugar = sum(l) + max(sugars[i] - sum(leads[i]), sugars[j] - sum(lj))
            heapq.heappush(heap, (sugar, tuple(-k for k in key(l)), i, j))

    for j in range(len(divisors)):
        push_pairs(j)

    done: set[tuple[int, int]] = set()
    while heap:
        sugar, _, i, j = heapq.heappop(heap)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        if coprime(li, lj):
            continue
        l = lcm(li, lj)
        if any(
            k not in (i, j) and divides(leads[k], l)
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k in range(len(divisors))
        ):
            continue
        if powers is not None:
            if sugar != deficit_degree:
                deficit_degree = sugar
                deficit = (len(degree_part(ctx, powers, sugar))
                           - len(degree_part(ctx, leads, sugar)))
            if not deficit:
                continue
        reductions += 1
        h, _ = tuple_reduce(key, tuple_s_polynomial(divisors[i], divisors[j], l), divisors, full)
        if not h:
            continue
        nonzero += 1
        d = tuple_divisor(key, h)
        if sum(d[0]) == 0:
            return unit_basis, nonzero, reductions
        deficit -= 1
        divisors.append(d)
        leads.append(d[0])
        sugars.append(sugar)
        push_pairs(len(divisors) - 1)
    return divisors, nonzero, reductions


def tuple_reduced_basis(ctx: RingContext, divisors) -> tuple[Polynomial, ...]:
    """The monic reduced basis from `tuple_buchberger`'s divisors, leads descending."""
    leads = [lm for lm, _, _ in divisors]
    key = order_key(ctx.order, ctx.nvars)
    keep = [leads.index(u) for u in sorted(minimalize(leads), key=key)]
    reduced = []
    for i in keep:
        lm, lc, tail = divisors[i]
        others = [divisors[j] for j in keep if j != i]
        h, _ = tuple_reduce(key, {lm: lc, **dict(tail)}, others)
        reduced.append(Polynomial({e: Fraction(c, h[lm]) for e, c in h.items()}))
    return tuple(reduced)


@dataclass(frozen=True)
class CoefficientHilbertPolynomial:
    """A polynomial in m as its tuple of coefficients by ascending power.

    An arithmetic on coefficient lists, independent of `Polynomial`, that
    `HilbertPolynomial` is checked against.  Powers skip the input degree
    limit, which the parser applies.
    """

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs) -> "CoefficientHilbertPolynomial":
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def constant(cls, c) -> "CoefficientHilbertPolynomial":
        return cls.make([c])

    @classmethod
    def zero(cls) -> "CoefficientHilbertPolynomial":
        return cls(())

    def __call__(self, m) -> Fraction:
        x = Fraction(m)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        zero = Fraction(0)
        return self.make([(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero)
                          for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CoefficientHilbertPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CoefficientHilbertPolynomial):
            if not self.coeffs or not other.coeffs:
                return self.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return self.make(out)
        scale = Fraction(other)
        return self.make([c * scale for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = self.constant(1)
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


# --- the printers and the constructor that `polynomial_str` and `make` replaced


def term_str(e: Monomial, c: Fraction) -> str:
    mon = monomial_str(e)
    if mon == "1":
        return str(c)
    if c == 1:
        return mon
    if c == -1:
        return f"-{mon}"
    return f"{c}*{mon}"


def term_polynomial_str(f: Polynomial, ctx: RingContext | None = None) -> str:
    """`parsing.polynomial_str` as it printed each term through `term_str`, then fixed the sign."""
    if not f:
        return "0"
    ctx = ctx or RingContext(max(1, f.nvars() - 1))
    pieces = []
    for e in ctx.descending(f.terms):
        text = term_str(e, f.terms[e])
        if not pieces:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append("- " + text[1:])
        else:
            pieces.append("+ " + text)
    return " ".join(pieces)


def hilbert_polynomial_str(P: HilbertPolynomial) -> str:
    """The text `HilbertPolynomial.__str__` printed in m on its own, powers sorted by hand."""
    pieces = []
    for (p,) in sorted(P.terms, reverse=True):
        c = P.terms[(p,)]
        if p == 0:
            body = str(abs(c))
        else:
            var = "m" if p == 1 else f"m^{p}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces) or "0"


def initialized_hilbert_polynomial(coeffs) -> HilbertPolynomial:
    """`HilbertPolynomial.make` as it built through `Polynomial.__init__`, m^0 first."""
    return HilbertPolynomial(((k,), c) for k, c in enumerate(coeffs))


def fraction_binomial_poly(shift: int, k: int) -> HilbertPolynomial:
    """`binomial_poly` as it multiplied out (m + shift) ... (m + shift - k + 1) on its own."""
    if k < 0:
        raise ValueError("binomial order must be nonnegative")
    coeffs = [1]
    for i in range(k):
        a = shift - i
        coeffs = [a * c + b for c, b in zip(coeffs + [0], [0] + coeffs)]
    den = factorial(k)
    return HilbertPolynomial._raw({(p,): Fraction(c, den) for p, c in enumerate(coeffs) if c})


def fraction_choose(top: HilbertPolynomial, k: int) -> HilbertPolynomial:
    """`hilbert._choose` as k products of `Fraction` polynomials, then a division by k!."""
    out = top.constant(1)
    for i in range(k):
        out = out * (top + top.constant(-i))
    return out * Fraction(1, factorial(k))


def fraction_macaulay_rep(P: HilbertPolynomial) -> MacaulayRep:
    """`macaulay_rep` on `Fraction` polynomials: each block subtracted as two binomials."""
    a: list[int] = []
    remainder = P
    i = 1
    while remainder:
        d = remainder.degree()
        lead = remainder.terms[(d,)]
        if lead < 0:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        block = lead * factorial(d)
        if block.denominator != 1:
            raise NotAdmissible(f"{P} is not an admissible Hilbert polynomial")
        b = int(block)
        if i + b > _MAX_EXPANSION_TERMS:
            raise ValueError(f"Gotzmann expansion of {P} exceeds {_MAX_EXPANSION_TERMS} terms")
        if d == 0:
            a.extend([0] * b)
            break
        a.extend([d] * b)
        remainder += (fraction_binomial_poly(d - i - b + 2, d + 1)
                      - fraction_binomial_poly(d - i + 2, d + 1))
        i += b
    return MacaulayRep(tuple(a))


def fraction_h_vector_sum(ctx: RingContext, M: MonomialIdeal) -> HilbertPolynomial:
    """`hilbert_polynomial_of_monomial_ideal` as the sum of h_i C(m + n - i, n - i) on `Fraction`s."""
    K = M.numerator
    h = [(-1) ** i * sum(c * comb(j, i) for j, c in enumerate(K)) for i in range(ctx.n + 1)]
    terms = (c * fraction_binomial_poly(ctx.n - i, ctx.n - i) for i, c in enumerate(h) if c)
    return sum(terms, HilbertPolynomial.zero())


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


def rank_first_points_sample(ctx: RingContext, m: int, points, dim_expected: int):
    """(dim I_m, p_alpha* != 0) for the ideal of `points`, with rank E taken on every sample.

    E is the evaluation matrix on ``ctx.monomials(m)``, I_m = ker E, and
    p_alpha* is the minor on its last len(points) columns; this is how
    `degeneracy --kind points` read a sample before it took the minor first.
    """
    cols = ctx.monomials(m)
    E = [[prod(c**k for k, c in zip(u, pt) if k) for u in cols] for pt in points]
    dim = len(cols) - linalg.rank(E, len(cols))
    return dim, linalg.det([row[dim_expected:] for row in E]) != 0


def subspace_from_polynomials(ctx: RingContext, m: int, polys) -> SubspaceBasis:
    """Canonicalize spanning degree-m forms; raises ValueError on a term of another degree."""
    one = unit(ctx.nvars)
    return subspace_from_vectors(ctx, m, coefficient_rows(ctx, m, ((one, f) for f in polys)))


def make_index(ctx: RingContext, monomials) -> SchubertIndex:
    """The index of strictly descending monomials of one degree; raises ValueError otherwise."""
    mons = tuple(tuple(m) for m in monomials)
    key = order_key(ctx.order, ctx.nvars)
    for a, b in zip(mons, mons[1:]):
        if key(a) >= key(b):
            raise ValueError("index monomials must be strictly descending")
    if len({sum(m) for m in mons}) > 1:
        raise ValueError("index monomials must have one degree")
    for m in mons:
        ctx.check(m)
    return SchubertIndex(mons)


def key_sorted_monomials(ctx: RingContext, m: int) -> tuple[Monomial, ...]:
    """The degree-m monomials by stars and bars, sorted by `order_key`.

    This is how `RingContext.monomials` listed a degree slice before it sorted
    the packs; kept as its oracle.
    """
    nvars = ctx.nvars
    out = []
    for bars in combinations(range(m + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(m + nvars - 1 - prev - 1)
        out.append(tuple(exps))
    return tuple(sorted(out, key=order_key(ctx.order, nvars)))


def index_rank(ctx: RingContext, idx: SchubertIndex) -> tuple[int, ...]:
    """The rank half of `names_and_rank`: the packs the tests compare indices by."""
    return names_and_rank(ctx, idx)[1]


def positions_rank(ctx: RingContext, idx: SchubertIndex) -> tuple[int, ...]:
    """`index_rank` through a table of every place, as ``RingContext.positions`` served it."""
    if not idx.monomials:
        return ()
    place = {u: k for k, u in enumerate(key_sorted_monomials(ctx, sum(idx.monomials[0])))}
    return tuple(place[u] for u in idx.monomials)


def formatted_strings(idx: SchubertIndex) -> list[str]:
    """`SchubertIndex.as_strings` as it formatted each monomial afresh; kept as its oracle."""
    return [monomial_str(u) for u in idx.monomials]


def encoded_rank(ctx: RingContext, idx: SchubertIndex) -> tuple[int, ...]:
    """`index_rank` as it encoded each monomial at ``pack_width(m)``; kept as its oracle."""
    if not idx.monomials:
        return ()
    return tuple(map(ctx.packing(pack_width(sum(idx.monomials[0]))).encode, idx.monomials))


def enumerating_certify(ctx: RingContext, inJ: MonomialIdeal, J: Ideal):
    """(P, m0, m) as `gin._certify` found them by building the index of in(J) at each m.

    m is the least degree from max(m0, deg J) on where dim S_m minus the size
    of the index equals P(m); kept as the oracle of the certification off the
    Hilbert series numerator.
    """
    P = hilbert_polynomial_of_monomial_ideal(ctx, inJ)
    m0 = gotzmann_number(P)
    m = max(m0, J.max_degree())
    while len(index_at_degree(ctx, inJ, m).monomials) != ctx.dim(m) - P(m):
        m += 1
    return P, m0, m


def counting_certify(ctx: RingContext, gens, J: Ideal):
    """(P, m0, m) of S/M, M generated by the monomials `gens`, counted by inclusion-exclusion.

    HF(S/M)_d = sum over the subsets T of gens of (-1)^|T| dim S_(d - deg lcm T),
    and P is the same sum of the binomials C(m - deg lcm T + n, n) as
    polynomials in m; m is the least degree from max(m0, deg J) on where the
    two agree.  No Hilbert series numerator and no index is read, so this is
    an oracle of `gin._certify` at any m.
    """
    signed = [((-1) ** k, sum(functools.reduce(lcm, T, unit(ctx.nvars))))
              for k in range(len(gens) + 1) for T in combinations(gens, k)]
    P = sum((binomial_poly(ctx.n - a, ctx.n) * sign for sign, a in signed), HilbertPolynomial.zero())
    m0 = gotzmann_number(P)
    m = max(m0, J.max_degree())
    while sum(sign * ctx.dim(m - a) for sign, a in signed) != P(m):
        m += 1
    return P, m0, m


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
        lead, _ = leading(ctx, f)
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
