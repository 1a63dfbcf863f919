"""The one text grammar: rationals p/q, + - * ^, parentheses and the atoms of a ring.

Polynomials have the atoms x0..xN, Hilbert polynomials (`ginlab.hilbert`) m and C(f,g).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .orders import GrevLex, Monomial, RingContext, order_key
from .poly import Polynomial


class ParseError(ValueError):
    """Invalid input text; `position` is the 0-based offset of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SPACE_DIGITS = re.compile(r"\s*(\d*)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        if self.text[self.pos:self.pos + 1].isspace():
            self.pos = _SPACE_DIGITS.match(self.text, self.pos).start(1)
        return self.text[self.pos:self.pos + 1]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def integer(self) -> int:
        match = _SPACE_DIGITS.match(self.text, self.pos)
        if not match.group(1):
            raise ParseError("expected an integer", match.start(1))
        self.pos = match.end()
        return int(match.group(1))


def parse_expression(text: str, constant, atoms, expected: str):
    """Parse `text` with the one expression grammar over a ring given by the caller.

        expr    := [+ | -] term {(+ | -) term}
        term    := factor {* factor}
        factor  := primary [^ integer]
        primary := ( expr ) | integer [/ integer] | ring atom

    `constant(c)` builds the ring element of a rational c.  `atoms` maps the
    first character of each ring atom to its reader, called just past that
    character as ``reader(scanner, expr, start)``, with `start` the atom's
    offset.  `expected` names what may start a primary, for the error message.
    """
    sc = _Scanner(text)

    def expr():
        negate = sc.take("-")
        if not negate:
            sc.take("+")
        total = term()
        if negate:
            total = -total
        while True:
            if sc.take("+"):
                total = total + term()
            elif sc.take("-"):
                total = total - term()
            else:
                return total

    def term():
        product = factor()
        while sc.take("*"):
            product = product * factor()
        return product

    def factor():
        base = primary()
        if sc.take("^"):
            exp = sc.integer()
            return constant(1) if exp == 0 else base**exp
        return base

    def primary():
        ch = sc.peek()
        if ch == "(":
            sc.expect("(")
            inner = expr()
            sc.expect(")")
            return inner
        if ch.isdigit():
            num = sc.integer()
            if sc.take("/"):
                den = sc.integer()
                if den == 0:
                    raise ParseError("zero denominator", sc.pos)
                return constant(Fraction(num, den))
            return constant(num)
        if ch in atoms:
            start = sc.pos
            sc.pos += 1
            return atoms[ch](sc, expr, start)
        raise ParseError(f"expected {expected}", sc.pos)

    result = expr()
    if sc.peek():
        raise ParseError("unexpected trailing input", sc.pos)
    return result


@lru_cache(maxsize=None)
def _variables(nvars: int) -> tuple[Polynomial, ...]:
    """x0..xN as polynomials, built once per ring; polynomials are never mutated."""
    return tuple(Polynomial.variable(nvars, i) for i in range(nvars))


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse e.g. ``x0*x2 - 3/2*x1^2 + 5`` into a polynomial in `nvars` variables."""
    xs = _variables(nvars)

    def variable(sc: _Scanner, expr, start: int) -> Polynomial:
        idx = sc.integer()
        if idx >= nvars:
            raise ParseError(f"variable x{idx} exceeds x{nvars - 1}", start)
        return xs[idx]

    return parse_expression(
        text, lambda c: Polynomial.constant(nvars, c), {"x": variable}, "a variable, number or '('"
    )


def parse_generators(text: str, nvars: int) -> list[Polynomial]:
    """Parse a ``;``-separated list of polynomials, skipping empty entries."""
    gens = []
    for chunk in text.split(";"):
        if chunk.strip():
            gens.append(parse_polynomial(chunk, nvars))
    return gens


def monomial_str(e: Monomial) -> str:
    parts = []
    for i, exp in enumerate(e):
        if exp == 1:
            parts.append(f"x{i}")
        elif exp > 1:
            parts.append(f"x{i}^{exp}")
    return "*".join(parts) if parts else "1"


def term_str(e: Monomial, c: Fraction) -> str:
    mon = monomial_str(e)
    if mon == "1":
        return str(c)
    if c == 1:
        return mon
    if c == -1:
        return f"-{mon}"
    return f"{c}*{mon}"


def polynomial_str(f: Polynomial, ctx: RingContext | None = None) -> str:
    """f with its terms descending under ctx.order, or under grevlex without a ring."""
    if not f:
        return "0"
    key = ctx.key if ctx else order_key(GrevLex(), f.nvars())
    pieces = []
    for e, c in sorted(f.terms.items(), key=lambda t: key(t[0])):
        text = term_str(e, c)
        if not pieces:
            pieces.append(text)
        elif text.startswith("-"):
            pieces.append("- " + text[1:])
        else:
            pieces.append("+ " + text)
    return " ".join(pieces)
