"""The one expression grammar, over polynomials and over Hilbert polynomials."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginlab.hilbert import HilbertPolynomial, parse_hilbert_polynomial
from ginlab.parsing import ParseError, parse_polynomial
from ginlab.poly import Polynomial
from oracles import parse_polynomial_by_factors

NVARS = 3
_M = HilbertPolynomial.make([0, 1])

# Precedence levels of the grammar: expr (+ -) < term (*) < factor (^) < primary.
_PREC = {"+": 1, "-": 1, "*": 2}


def _trees(atom):
    """Expression trees over the shared operators; leaves are numbers or ring atoms."""
    number = st.builds(lambda p, q: ("num", p, q), st.integers(0, 12), st.sampled_from([1, 2, 7]))
    leaf = st.one_of(number, atom)

    def extend(children):
        binary = st.tuples(st.sampled_from(["+", "-", "*"]), children, children, st.booleans())
        power = st.tuples(st.just("^"), children, st.integers(0, 3))
        negate = st.tuples(st.just("neg"), children)
        return st.one_of(binary, power, negate)

    return st.recursive(leaf, extend, max_leaves=7)


def _render(tree, prec=1) -> str:
    """Text with the fewest parentheses the grammar's precedence allows."""
    kind = tree[0]
    if kind == "num":
        _, p, q = tree
        return str(p) if q == 1 else f"{p}/{q}"
    if kind == "x":
        return f"x{tree[1]}"
    if kind == "m":
        return "m"
    if kind == "C":
        _, top, k, flipped = tree
        bottom = f"{top} - {k}" if flipped else str(k)
        return f"C({top},{bottom})"
    if kind == "neg":
        # a sign may only open an expression, so a negation is parenthesized
        return f"(-{_render(tree[1], 2)})"
    if kind == "^":
        _, base, k = tree
        text = f"{_render(base, 4)}^{k}"
        return f"({text})" if prec > 3 else text
    op, left, right, spaced = tree
    sep = f" {op} " if spaced else op
    text = _render(left, _PREC[op]) + sep + _render(right, _PREC[op] + 1)
    return f"({text})" if _PREC[op] < prec else text


def _evaluate(tree, one, leaf):
    """The value of the tree by ring arithmetic; x^k is k products starting from 1."""
    kind = tree[0]
    if kind == "num":
        return one * Fraction(tree[1], tree[2])
    if kind in ("+", "-", "*"):
        a, b = _evaluate(tree[1], one, leaf), _evaluate(tree[2], one, leaf)
        return a + b if kind == "+" else a - b if kind == "-" else a * b
    if kind == "neg":
        return -_evaluate(tree[1], one, leaf)
    if kind == "^":
        base, out = _evaluate(tree[1], one, leaf), one
        for _ in range(tree[2]):
            out = out * base
        return out
    return leaf(tree)


def _hilbert_leaf(tree):
    if tree[0] == "m":
        return _M
    # C(m + a, k) = (m + a)(m + a - 1)...(m + a - k + 1) / k!
    _, top, k, _ = tree
    shift = int(top[1:] or 0)
    out = HilbertPolynomial.constant(1)
    for i in range(k):
        out = out * HilbertPolynomial.make([shift - i, 1])
    return out * Fraction(1, factorial(k))


_VARIABLE = st.integers(0, NVARS - 1).map(lambda i: ("x", i))
_SHIFT = st.sampled_from(["m", "m+1", "m+3", "m-1", "m-2", "m+0"])
_HILBERT_ATOM = st.one_of(
    st.just(("m",)), st.tuples(st.just("C"), _SHIFT, st.integers(0, 3), st.booleans())
)


@settings(max_examples=200, deadline=None)
@given(_trees(_VARIABLE))
def test_polynomial_text_parses_to_tree_value(tree):
    one = Polynomial.constant(NVARS, 1)
    expected = _evaluate(tree, one, lambda t: Polynomial.variable(NVARS, t[1]))
    assert parse_polynomial(_render(tree), NVARS) == expected


@settings(max_examples=200, deadline=None)
@given(_trees(_HILBERT_ATOM))
def test_hilbert_text_parses_to_tree_value(tree):
    expected = _evaluate(tree, HilbertPolynomial.constant(1), _hilbert_leaf)
    assert parse_hilbert_polynomial(_render(tree)) == expected


def test_zero_to_the_zero_is_one():
    assert parse_polynomial("0^0", NVARS) == Polynomial.constant(NVARS, 1)
    assert parse_polynomial("(x0 - x0)^0 + 0^2", NVARS) == Polynomial.constant(NVARS, 1)
    assert parse_hilbert_polynomial("0^0 + m^0") == HilbertPolynomial.constant(2)


# (text, 0-based offset of the ParseError)
POLYNOMIAL_ERRORS = [
    ("x0 + + x1", 5),
    ("2x0", 1),
    ("x7", 0),
    ("x3", 0),
    ("1/0", 3),
    ("1/ 0", 4),
    ("4/0*x1", 3),
    ("(x0", 3),
    ("(x0 + x1", 8),
    ("x0)", 2),
    ("x0 @ x1", 3),
    ("x0 x1", 3),
    ("x0^", 3),
    ("x0^-1", 3),
    ("x2^x1", 3),
    ("x0^2/3", 4),
    ("x", 1),
    ("x0*", 3),
    ("3/", 2),
    ("", 0),
    ("  ", 2),
    ("+", 1),
    ("-", 1),
    ("--x0", 1),
]

HILBERT_ERRORS = [
    ("2*m +", 5),
    ("C(m, m^2)", 0),
    ("C(m^2, 2) + C(m, m^2)", 12),
    ("1/0", 3),
    ("(m", 2),
    ("m m", 2),
    ("mx", 1),
    ("m^2/2", 3),
    ("m^", 2),
    ("m^-1", 2),
    ("C(m+1,-1)", 0),
    ("C(m+1, 1/2)", 0),
    ("C m", 2),
    ("C(m 2)", 4),
    ("C(m,2", 5),
    ("C(,2)", 2),
    ("C(m+1,2))", 8),
    ("C(m,1)^", 7),
    ("", 0),
    ("x", 0),
    ("*m", 0),
    ("2**m", 2),
]


@pytest.mark.parametrize("text,position", POLYNOMIAL_ERRORS)
def test_polynomial_error_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, NVARS)
    assert err.value.position == position


@pytest.mark.parametrize("text,position", HILBERT_ERRORS)
def test_hilbert_error_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_hilbert_polynomial(text)
    assert err.value.position == position


# (parser, text, message, position), read off the character-by-character
# scanner that the regex scanner replaced; whitespace sits around the offence
PINNED_ERRORS = [
    ("x", "x0 +", "expected a variable, number or '('", 4),
    ("x", "x0 * * x1", "expected a variable, number or '('", 5),
    ("x", "  x3 + x1", "variable x3 exceeds x2", 2),
    ("x", "x0 ^ y", "expected an integer", 5),
    ("x", "(x0 + x1", "expected ')'", 8),
    ("x", "3 / 0 * x1", "zero denominator", 5),
    ("x", "x0 x1", "unexpected trailing input", 3),
    ("x", "2/ ", "expected an integer", 3),
    ("x", " \t", "expected a variable, number or '('", 2),
    ("x", "x0^12345678901234567890 @", "unexpected trailing input", 24),
    ("m", "C(m, )", "expected m, a number, C(...) or '('", 5),
    ("m", "C(m 2)", "expected ','", 4),
    ("m", "m^ 2 2", "unexpected trailing input", 5),
    ("m", "C ( m + 2 , 2", "expected ')'", 13),
    # a power of a power is not in the grammar
    ("x", "x0^2^3", "unexpected trailing input", 4),
    # digits are ASCII: a digit of another script is no integer
    ("x", "x0^\u0663", "expected an integer", 3),
    ("x", "x\u0661*x0", "expected an integer", 1),
    ("x", "\u0663*x0", "expected an integer", 0),
    ("m", "m^\u0663", "expected an integer", 2),
]


@pytest.mark.parametrize("ring,text,message,position", PINNED_ERRORS)
def test_error_messages_and_positions(ring, text, message, position):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, NVARS) if ring == "x" else parse_hilbert_polynomial(text)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)


def test_binomial_of_a_polynomial_top_is_valid():
    # C(f, k) needs only the order k constant, so C(m^2, 2) = m^2 (m^2 - 1) / 2
    half = Fraction(1, 2)
    assert parse_hilbert_polynomial("C(m^2, 2)") == HilbertPolynomial.make([0, 0, -half, 0, half])


# (text, terms): a power binds to p/q, an index may follow x after a space,
# 0^0 is 1, and a zero factor leaves no term
PINNED_VALUES = [
    ("3/4^2*x0", {(1, 0, 0): Fraction(9, 16)}),
    ("0^0", {(0, 0, 0): 1}),
    ("x 1", {(0, 1, 0): 1}),
    ("2*(x0+x1)^2*x2", {(2, 0, 1): 2, (1, 1, 1): 4, (0, 2, 1): 2}),
    ("0*x0^5", {}),
]


@pytest.mark.parametrize("text,terms", PINNED_VALUES)
def test_pinned_values(text, terms):
    assert parse_polynomial(text, NVARS) == Polynomial(terms) == parse_polynomial_by_factors(text, NVARS)


_WS = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n\t"])


def _joined(items, seps):
    return st.builds(
        lambda first, rest: first + "".join(sep + item for sep, item in rest),
        items, st.lists(st.tuples(seps, items), max_size=3),
    )


def _powered(base, exponents):
    return st.builds(
        lambda b, w1, w2, k: b if k is None else f"{b}{w1}^{w2}{k}",
        base, _WS, _WS, st.none() | exponents,
    )


def _polynomial_texts():
    """Texts of the grammar: signs, p/q, powers, nested parentheses and mixed whitespace.

    Only variables take exponents up to 10^20; numbers and sums take small
    ones, so that no text expands past a few hundred terms.  Half the texts
    may hold invalid atoms: a zero denominator, a variable past the ring, ...
    """
    number = st.builds(
        lambda p, q, w1, w2: str(p) if q is None else f"{p}{w1}/{w2}{q}",
        st.integers(0, 99), st.sampled_from([None, None, None, 1, 2, 7]), _WS, _WS,
    )
    variable = st.builds(
        lambda w, i: f"x{w}{i}", st.sampled_from(["", "", " ", "\t"]), st.integers(0, NVARS - 1)
    )
    valid = st.one_of(
        _powered(number, st.integers(0, 4)),
        _powered(variable, st.integers(0, 4) | st.integers(0, 10**20)),
    )
    invalid = st.sampled_from(["1/0", "3 / 0", f"x{NVARS}", "x", "2/", "x0^", "()"])
    star = st.builds(lambda a, b: f"{a}*{b}", _WS, _WS)
    plus = st.builds(lambda a, op, b: f"{a}{op}{b}", _WS, st.sampled_from("+-"), _WS)
    sign = st.sampled_from(["", "", "-", "+", "- ", " -"])

    def texts(atom):
        def expr(factor):
            return st.builds(lambda s, t: s + t, sign, _joined(_joined(factor, star), plus))

        def nest(inner):
            group = st.builds(lambda w1, e, w2: f"({w1}{e}{w2})", _WS, inner, _WS)
            return expr(st.one_of(atom, _powered(group, st.integers(0, 3))))

        return st.recursive(expr(atom), nest, max_leaves=6)

    return texts(valid) | texts(valid | invalid)


# Characters the grammar rejects or reads in other places, and digits of other
# scripts; no ASCII digit or ')', which could raise a sum or a number to 10^20.
_JUNK = "@#;,.=!x^*/(+- \u00a0\u0663\u00b2"


@settings(max_examples=300, deadline=None)
@given(
    _polynomial_texts(),
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_JUNK)), max_size=2),
)
def test_term_runs_match_the_factor_by_factor_parser(text, junk):
    for at, ch in junk:
        at %= len(text) + 1
        text = text[:at] + ch + text[at:]

    def outcome(parse):
        try:
            return parse(text, NVARS).terms
        except ParseError as err:
            return str(err), err.position

    assert outcome(parse_polynomial) == outcome(parse_polynomial_by_factors)
