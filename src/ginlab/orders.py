"""Total monomial orders and the ambient ring context.

A monomial is an exponent tuple over the variables x0..xn.  An order is an
integer matrix and nothing else, ``rows(nvars)``: a is above b exactly when
rows . a is lexicographically larger than rows . b (Robbiano, "Term orderings
on the polynomial ring", 1985).

One int per monomial (Monagan and Pearce, JSC 2011; Bachmann and Schoenemann,
ISSAC 1998) is the one reading of that matrix: `RingContext.packing(bits)`
gives M(e) = (k(e) << P) + the exponents at bits + 1 bits each, k(e) the
digits -rows . e in a base no product carries past and a guard bit atop each
field.  A product is one addition, M ascends as monomials descend, x^a | x^b
iff ((M(b) | G) - M(a)) & G == G for the guard bits G, and an exponent
reaching 2^bits shows in M & G.

So monomials are sorted by their packs: `RingContext.descending(mons)` sorts
any of them, of mixed degree too, and its first is the leading one;
`RingContext.packs(m, bits)` is one sorted list per degree and width,
`RingContext.monomials(m)` decodes it, and `RingContext.names(m)` holds the
printed name of each, in the same order: the degree-m chain that Schubert
indices are read off, each name formatted once per ring and degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from operator import add, le, mul as times

Monomial = tuple[int, ...]


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def pack_width(degree: int) -> int:
    """Bits per exponent in the pack of a monomial of total degree <= `degree`."""
    return max(1, degree.bit_length())


def divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


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


@dataclass(frozen=True)
class Packing:
    """M(e) = sum_i e_i * scales[i] at `width` bits per pack field; see the module docstring."""

    scales: tuple[int, ...]
    width: int
    guard: int

    def encode(self, e: Monomial) -> int:
        return sum(map(times, e, self.scales))

    def decode(self, p: int) -> Monomial:
        w, mask = self.width, (1 << self.width) - 1
        return tuple([p >> s & mask for s in range(0, w * len(self.scales), w)])


@dataclass(frozen=True)
class RingContext:
    """Ambient ring Q[x0..xn] together with a total monomial order."""

    n: int
    order: MonomialOrder = field(default_factory=GrevLex)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient projective dimension n must be at least 1")
        if any(len(row) != self.nvars for row in self.order.rows(self.nvars)):
            raise ValueError("monomial order does not match the number of variables")

    @property
    def nvars(self) -> int:
        return self.n + 1

    @lru_cache(maxsize=None)
    def packing(self, bits: int) -> Packing:
        """One int per monomial of this ring, for exponents below 2^bits."""
        rows, width = self.order.rows(self.nvars), bits + 1
        digit = bits + 1 + max(sum(map(abs, row)) for row in rows).bit_length()  # > |row . e|
        keys = [sum(row[i] << digit * (len(rows) - 1 - r) for r, row in enumerate(rows))
                for i in range(self.nvars)]
        scales = tuple((-k << width * self.nvars) + (1 << width * i) for i, k in enumerate(keys))
        return Packing(scales, width, sum(1 << (width * i + bits) for i in range(self.nvars)))

    def descending(self, monomials) -> list[Monomial]:
        """`monomials`, of any degrees, descending under this context's order: ascending packs."""
        monomials = list(monomials)
        top = max(map(max, monomials), default=0)
        return sorted(monomials, key=self.packing(pack_width(top)).encode)

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
        return self._monomials(m)

    @lru_cache(maxsize=None)
    def _monomials(self, m: int) -> tuple[Monomial, ...]:
        return tuple(map(self.packing(pack_width(m)).decode, self.packs(m, pack_width(m))))

    @lru_cache(maxsize=None)
    def names(self, m: int) -> tuple[str, ...]:
        """The printed names of ``monomials(m)``, in its order."""
        from .parsing import monomial_str

        return tuple(map(monomial_str, self.monomials(m)))

    @lru_cache(maxsize=None)
    def packs(self, m: int, bits: int) -> tuple[int, ...]:
        """The packs at `bits` >= ``pack_width(m)`` of the degree-m monomials, ascending."""
        return tuple(sorted(_lex_packs(m, self.packing(bits).scales)))

    def top_segment(self, m: int, count: int) -> tuple[Monomial, ...]:
        """The first `count` of ``monomials(m)``: the largest index of that size."""
        chain = self.monomials(m)
        if not 0 <= count <= len(chain):
            raise ValueError(f"index size {count} out of range 0..{len(chain)}")
        return chain[:count]

    def variables(self) -> tuple[Monomial, ...]:
        return tuple(variable(self.nvars, i) for i in range(self.nvars))


def _lex_packs(m: int, scales: tuple[int, ...]) -> list[int]:
    """The packs sum_i e_i * scales[i] of the degree-m monomials, lex-descending.

    Built from the last variable up: the monomials of degree d in x_i..x_n
    are x_i^k times those of degree d - k in x_(i+1)..x_n, k from d down to 0.
    """
    if m < 0:
        return []
    *head, last = scales
    packs = [[d * last] for d in range(m + 1)]
    for i in reversed(range(len(head))):
        s, degrees = head[i], range(m + 1) if i else (m,)
        packs = [[k * s + p for k in range(d, -1, -1) for p in packs[d - k]] for d in degrees]
    return packs[-1]
