"""Total monomial orders and the ambient ring context.

A monomial is an exponent tuple over the variables x0..xn.  An order is an
integer matrix and nothing else, ``rows(nvars)``: a is above b exactly when
rows . a is lexicographically larger than rows . b (Robbiano, "Term orderings
on the polynomial ring", 1985).  `order_key` turns the matrix into the one
sort key, -rows . a, which ascends as monomials descend: ``sorted(mons,
key=ctx.key)`` lists them in descending order and ``min(mons, key=ctx.key)``
is the leading one.  A `RingContext` keeps that key for its lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import add, le, mul as times

Monomial = tuple[int, ...]


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def pack_width(degree: int) -> int:
    """Bits per exponent in the pack of a monomial of total degree <= `degree`."""
    return max(1, degree.bit_length())


def pack(m: Monomial, w: int) -> int:
    """x^m as one int, exponent i at bit w*i.

    With w = pack_width(d), monomials whose product has total degree <= d
    multiply by adding their packs: no exponent carries into the next
    (Monagan and Pearce, "Sparse polynomial division using a heap", 2011).
    """
    return sum(e << (w * i) for i, e in enumerate(m))


def unpack(p: int, w: int, nvars: int) -> Monomial:
    """The exponent tuple of a pack of width w; inverse of `pack`."""
    mask = (1 << w) - 1
    return tuple(p >> (w * i) & mask for i in range(nvars))


def divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of x^a / x^b; requires divisibility."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError(f"{b} does not divide {a}")
    return q


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def unit(nvars: int) -> Monomial:
    return (0,) * nvars


def variable(nvars: int, i: int) -> Monomial:
    if not 0 <= i < nvars:
        raise ValueError(f"variable index {i} out of range for {nvars} variables")
    return tuple(1 if j == i else 0 for j in range(nvars))


@dataclass(frozen=True)
class Lex:
    """Lexicographic order with x0 > x1 > ... > xn."""

    def rows(self, nvars: int) -> tuple[tuple[int, ...], ...]:
        return tuple(variable(nvars, i) for i in range(nvars))

    def __str__(self) -> str:
        return "lex"


@dataclass(frozen=True)
class GrevLex:
    """Degree reverse lexicographic order with x0 > x1 > ... > xn."""

    def rows(self, nvars: int) -> tuple[tuple[int, ...], ...]:
        # the degree row, then -e_n, ..., -e_1; -e_0 is left out because
        # monomials that agree on all of these rows are equal
        back = [tuple(-e for e in variable(nvars, i)) for i in reversed(range(1, nvars))]
        return ((1,) * nvars, *back)

    def __str__(self) -> str:
        return "grevlex"


@dataclass(frozen=True)
class WeightOrder:
    """Compare by nonnegative weight vector first, break ties with `tiebreak`."""

    weights: tuple[int, ...]
    tiebreak: Lex | GrevLex = field(default_factory=GrevLex)

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("weight vector must be nonnegative")

    def rows(self, nvars: int) -> tuple[tuple[int, ...], ...]:
        return (self.weights, *self.tiebreak.rows(nvars))

    def __str__(self) -> str:
        return "weight:" + ",".join(str(w) for w in self.weights)


MonomialOrder = Lex | GrevLex | WeightOrder


@lru_cache(maxsize=None)
def order_key(order: MonomialOrder, nvars: int):
    """The sort key -rows . m of `order` on nvars variables; the larger monomial has the smaller key.

    Cached per (order, nvars), so the width check runs once for each pair.
    """
    rows = order.rows(nvars)
    if any(len(row) != nvars for row in rows):
        raise ValueError("monomial order does not match the number of variables")

    def key(m: Monomial) -> tuple[int, ...]:
        return tuple([-sum(map(times, row, m)) for row in rows])

    return key


@dataclass(frozen=True)
class RingContext:
    """Ambient ring Q[x0..xn] together with a total monomial order."""

    n: int
    order: MonomialOrder = field(default_factory=GrevLex)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient projective dimension n must be at least 1")
        order_key(self.order, self.nvars)  # refuses a matrix of the wrong width

    @property
    def nvars(self) -> int:
        return self.n + 1

    @cached_property
    def key(self):
        """The order's sort key, ascending for descending monomials, cached per monomial."""
        return lru_cache(maxsize=None)(order_key(self.order, self.nvars))

    def check(self, m: Monomial) -> None:
        if len(m) != self.nvars:
            raise ValueError(f"monomial {m} does not live in {self.nvars} variables")

    def dim(self, m: int) -> int:
        """Number of degree-m monomials in n+1 variables."""
        if m < 0:
            return 0
        return comb(self.n + m, self.n)

    def monomials(self, m: int) -> tuple[Monomial, ...]:
        """All degree-m monomials, descending under this context's order."""
        return _sorted_monomials(self.nvars, m, self.order)

    def top_segment(self, m: int, count: int) -> tuple[Monomial, ...]:
        """The first `count` of ``monomials(m)``: the largest index of that size."""
        chain = self.monomials(m)
        if not 0 <= count <= len(chain):
            raise ValueError(f"index size {count} out of range 0..{len(chain)}")
        return chain[:count]

    @lru_cache(maxsize=None)
    def positions(self, m: int) -> dict[Monomial, int]:
        """The place of each degree-m monomial in ``monomials(m)``, one table per ring and m."""
        return {u: k for k, u in enumerate(self.monomials(m))}

    def variables(self) -> tuple[Monomial, ...]:
        return tuple(variable(self.nvars, i) for i in range(self.nvars))


@lru_cache(maxsize=None)
def _monomials_of_degree(nvars: int, m: int) -> tuple[Monomial, ...]:
    if m < 0:
        return ()
    # stars and bars: bar positions in a row of m + nvars - 1 slots
    out = []
    for bars in combinations(range(m + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(m + nvars - 1 - prev - 1)
        out.append(tuple(exps))
    return tuple(out)


@lru_cache(maxsize=None)
def _sorted_monomials(nvars: int, m: int, order: MonomialOrder) -> tuple[Monomial, ...]:
    return tuple(sorted(_monomials_of_degree(nvars, m), key=order_key(order, nvars)))
