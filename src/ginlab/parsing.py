"""The one text grammar and its one printer: rationals p/q, + - * ^, parentheses and ring atoms.

A ring names its atoms for both: x0..xN for polynomials, m and C(f,g) for
Hilbert polynomials (`ginlab.hilbert`); `polynomial_str` prints the signs and
coefficients and asks the ring's namer for each monomial.
Digits are ASCII: an integer is a run of 0-9.

Polynomial text is read a term at a time.  At the start of each term,
`parse_polynomial` matches the longest run of number and variable factors,
such as ``23*x0^2*x1`` or ``3/4^2*x0`` (a power binds to p/q), with one
compiled regex per factor, and multiplies it into one exponent tuple and one
rational coefficient; the general factor loop goes on from where the run
stopped.  The run takes only a factor that the grammar reads the same way:
it stops before a factor that ``^`` or ``/`` follows (``x0^y``, ``2/x``,
``x0^2^3``), a zero denominator, a variable past the ring and the ``*`` of
``*(``, so every `ParseError` comes from the general path, with its message
and position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .orders import Monomial, RingContext
from .poly import Polynomial


class ParseError(ValueError):
    """Invalid input text; `position` is the 0-based offset of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SPACE_DIGITS = re.compile(r"\s*([0-9]*)")


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


def parse_expression(text: str, constant, atoms, expected: str, run=None):
    """Parse `text` with the one expression grammar over a ring given by the caller.

        expr    := [+ | -] term {(+ | -) term}
        term    := factor {* factor}
        factor  := primary [^ integer]
        primary := ( expr ) | integer [/ integer] | ring atom

    `constant(c)` builds the ring element of a rational c.  `atoms` maps the
    first character of each ring atom to its reader, called just past that
    character as ``reader(scanner, expr, start)``, with `start` the atom's
    offset.  `expected` names what may start a primary, for the error message.
    `run(scanner)`, if given, reads the leading factors of a term as one ring
    element, leaving the scanner past them, or returns None having read none.
    """
    sc = _Scanner(text)

    def expr():
        negate = sc.take("-")
        if not negate:
            sc.take("+")
        parts = [(False, -term() if negate else term())]
        while True:
            if sc.take("+"):
                parts.append((False, term()))
            elif sc.take("-"):
                parts.append((True, term()))
            else:
                return parts[0][1]._gathered(parts[1:]) if len(parts) > 1 else parts[0][1]

    def term():
        product = run(sc) if run else None
        if product is None:
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


# One factor of a run: an integer p [/ q] or a variable x<i>, then [^ k], then
# the next character past the whitespace after it; whitespace is the scanner's.
_FACTOR = re.compile(r"\s*(?:([0-9]+)(?:\s*/\s*([0-9]+))?|x\s*([0-9]+))(?:\s*\^\s*([0-9]+))?\s*(.?)")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse e.g. ``x0*x2 - 3/2*x1^2 + 5`` into a polynomial in `nvars` variables."""

    def variable(sc: _Scanner, expr, start: int) -> Polynomial:
        idx = sc.integer()
        if idx >= nvars:
            raise ParseError(f"variable x{idx} exceeds x{nvars - 1}", start)
        return Polynomial.variable(nvars, idx)

    def run(sc: _Scanner) -> Polynomial | None:
        exps, num, den = [0] * nvars, 1, 1
        start = sc.pos
        match = _FACTOR.match(sc.text, start)
        while match:
            p, q, i, k, after = match.groups()
            if after == "^" or after == "/":
                break  # x0^y, 2/x, x0^2^3: the general path reads or rejects it
            if i is None:
                p, q = int(p), int(q or 1)
                if not q:
                    break
                k = int(k or 1)
                num *= p**k
                den *= q**k
            else:
                i = int(i)
                if i >= nvars:
                    break
                exps[i] += int(k or 1)
            sc.pos = match.start(5)
            if after != "*":
                break
            match = _FACTOR.match(sc.text, sc.pos + 1)
        if sc.pos == start:
            return None
        if not num:
            return Polynomial.zero()
        return Polynomial._raw({tuple(exps): Fraction(num) if den == 1 else Fraction(num, den)})

    return parse_expression(
        text,
        lambda c: Polynomial.constant(nvars, c),
        {"x": variable},
        "a variable, number or '('",
        run,
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


def polynomial_str(f: Polynomial, ctx: RingContext | None = None, name=monomial_str) -> str:
    """f with its terms descending under ctx.order, or grevlex without a ring; `name` prints a monomial."""
    if not f:
        return "0"
    # without a ring, grevlex; a ring has two variables at least, and a
    # one-variable monomial (a,) packs as x0^a of Q[x0, x1], as encode zips
    ctx = ctx or RingContext(max(1, f.nvars() - 1))
    pieces = []
    for e in ctx.descending(f.terms):
        c, mon = str(f.terms[e]), name(e)
        sign, c = ("- ", c[1:]) if c[0] == "-" else ("+ ", c)
        pieces.append(sign + (c if mon == "1" else mon if c == "1" else f"{c}*{mon}"))
    # the leading term drops its "+ " and keeps a bare "-"
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]
