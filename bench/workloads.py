"""Seeded request lists for the benchmark workloads.

A workload is a list of ``ginlab`` command lines.  The list is a pure
function of ``(workload, seed)``: the family mix and the size grid are fixed,
and the seed draws the dense integer coefficients, the CLI ``--seed`` values,
the Gotzmann-graded curve polynomials and the request order.  Keeping the mix
fixed makes the work per run nearly seed independent, so run-to-run spread
comes from the machine and not from the draw.

Each request also carries closed-form facts that every correct report
satisfies whatever the seed (``expect``), computed here without ginlab.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

# Coefficients of the dense random forms are nonzero integers in [-BOUND, BOUND].
COEFF_BOUND = 30


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    family: str
    expect: dict = field(default_factory=dict)


def monomials(nvars: int, d: int):
    """All exponent tuples of degree d in nvars variables (stars and bars)."""
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        exps, prev = [], -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(d + nvars - 2 - prev)
        yield tuple(exps)


def _monomial_text(e) -> str:
    parts = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k]
    return "*".join(parts) or "1"


def dense_form(rng: random.Random, n: int, d: int) -> str:
    """A degree-d form in x0..xn with every monomial present."""
    text = []
    for e in monomials(n + 1, d):
        c = rng.randint(1, COEFF_BOUND) * rng.choice((1, -1))
        sign = "-" if c < 0 else "+"
        text.append(f"{sign} {abs(c)}*{_monomial_text(e)}")
    joined = " ".join(text)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


def ci_hilbert_polynomial(n: int, degrees) -> list[Fraction]:
    """Coefficients (constant first) of the Hilbert polynomial of a complete
    intersection of forms of the given degrees in P^n.

    Inclusion-exclusion over the Koszul complex gives
    H(m) = sum_S (-1)^|S| C(m - sum(S) + n, n) for m >= sum(degrees); the
    polynomial is interpolated from n + 1 such values.
    """
    top = sum(degrees)

    def value(m: int) -> int:
        total = 0
        for k in range(len(degrees) + 1):
            for subset in combinations(degrees, k):
                total += (-1) ** k * comb(m - sum(subset) + n, n)
        return total

    xs = [top + i for i in range(n + 1)]
    return _interpolate([(x, value(x)) for x in xs])


def _interpolate(points) -> list[Fraction]:
    size = len(points)
    coeffs = [Fraction(0)] * size
    for k, (xk, yk) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == k:
                continue
            basis = [Fraction(0)] + basis
            for i in range(len(basis) - 1):
                basis[i] -= xj * basis[i + 1]
            denom *= xk - xj
        for i in range(size):
            coeffs[i] += yk * basis[i] / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _label(n: int, degrees, order: str) -> str:
    return f"ci({','.join(map(str, degrees))}) P^{n} {order}"


# (n, degrees, order, requests): the P^2/P^3 families of the gin survey.  The
# counts put the median request inside the ci(3,3) family and the 90th
# percentile inside the ci(3,4) family, so neither sits on a boundary between
# families of very different cost.
GIN_FAMILIES = (
    (2, (2,), "grevlex", 14),
    (2, (2, 2), "grevlex", 14),
    (2, (2, 3), "grevlex", 14),
    (2, (3, 3), "grevlex", 18),
    (3, (2, 2), "grevlex", 13),
    (3, (2, 2), "lex", 12),
    (2, (3, 4), "grevlex", 12),
    (2, (4, 4), "grevlex", 2),
    (3, (2, 3), "grevlex", 1),
)


def gin_survey(rng: random.Random) -> list[Request]:
    out = []
    for n, degrees, order, count in GIN_FAMILIES:
        expect = {"hilbert_polynomial": ci_hilbert_polynomial(n, degrees)}
        for _ in range(count):
            ideal = ";".join(dense_form(rng, n, d) for d in degrees)
            argv = ("gin", "--n", str(n), "--order", order, "--trials", "3",
                    "--seed", _seed(rng), "--ideal", ideal)
            out.append(Request(argv, "gin " + _label(n, degrees, order), expect))
    return out


def _curve_text(a: int, b: int) -> str:
    if b == 0:
        return f"{a}*m"
    return f"{a}*m {'+' if b > 0 else '-'} {abs(b)}"


def _curve_with_gotzmann(rng: random.Random, g: int, max_degree: int) -> tuple[int, int]:
    """A random admissible a*m + b whose Gotzmann number is g.

    The Gotzmann number of a*m + b is a + b - 1 + C(a-1, 2); b is solved for.
    """
    a = rng.randint(1, min(g, max_degree))
    return a, g - a + 1 - comb(a - 1, 2)


def _hilb(n: int, text: str, gotzmann: int, family: str) -> Request:
    argv = ("hilb-info", "--n", str(n), "--p", text)
    return Request(argv, family, {"gotzmann": gotzmann})


def hilbert_lex(rng: random.Random) -> list[Request]:
    out = []
    for n, top in ((2, 20), (3, 10)):
        for c in range(1, top + 1):
            out.append(_hilb(n, str(c), c, f"hilb constant P^{n}"))
    out.append(_hilb(3, "6*m - 3", 12, "hilb 6*m-3 P^3"))
    # Curves graded by Gotzmann number, which sets the saturation cost.
    for n, max_g, repeats, max_degree in ((3, 7, 4, 4), (4, 5, 3, 3)):
        for g in range(1, max_g + 1):
            for _ in range(repeats):
                a, b = _curve_with_gotzmann(rng, g, max_degree)
                out.append(_hilb(n, _curve_text(a, b), g, f"hilb a*m+b P^{n}"))
    # Hypersurfaces are cheap; they make the bulk of the list, so the median
    # request is a cheap saturation and the 90th percentile falls among the
    # mid-cost curves rather than on the edge of the heavy constants.
    for n, max_d, repeats in ((2, 6, 6), (3, 6, 6), (4, 4, 4)):
        for d in range(1, max_d + 1):
            shift = n - d
            low = f"C(m+{shift},{n})" if shift > 0 else (
                f"C(m,{n})" if shift == 0 else f"C(m{shift},{n})")
            for _ in range(repeats):
                out.append(_hilb(n, f"C(m+{n},{n}) - {low}", d, f"hilb hypersurface P^{n}"))
    for n, m_max, l_max in ((2, 3, 2), (2, 4, 2), (3, 3, 2), (3, 4, 1)):
        argv = ("revlex-lemma", "--n", str(n), "--m-max", str(m_max), "--l-max", str(l_max))
        out.append(Request(argv, "revlex-lemma", {}))
    return out


# Member pairs of one strata request, same family or one of each:
# (n, first member, second member, requests).  P^3 pairs cost about three
# times P^2 pairs; the counts put the median and the 90th percentile well
# inside the P^3 requests, off the boundary between the two groups.
STRATA_PAIRS = (
    (3, (2, 3), (2, 3), 26),
    (3, (2, 3), (2, 2, 2), 26),
    (3, (2, 2, 2), (2, 2, 2), 26),
    (2, (3, 3), (3, 3), 8),
    (2, (3, 3), (3, 4), 8),
    (2, (3, 4), (3, 4), 8),
)


def strata_lex(rng: random.Random) -> list[Request]:
    out = []
    for n, first, second, count in STRATA_PAIRS:
        family = f"strata {_label(n, first, 'lex')} + {_label(n, second, 'lex')}"
        for _ in range(count):
            members = "|".join(
                ";".join(dense_form(rng, n, d) for d in degrees) for degrees in (first, second)
            )
            argv = ("strata", "--n", str(n), "--mode", "initial", "--order", "lex",
                    "--seed", _seed(rng), "--members", members)
            out.append(Request(argv, family, {"family_size": 2}))
    return out


def pluecker_sampling(rng: random.Random) -> list[Request]:
    out = []
    # The twelve P^3 cubics at m = 6 are the 4th to 15th most expensive
    # requests, so the 90th percentile sits inside one group of equal cost.
    repeats = {(3, 2, 6): 2, (3, 3, 6): 12}
    for n, d, m in ((n, d, m) for n in (2, 3) for d in (2, 3) for m in (3, 4, 5, 6)):
        expect = {"subspace_dimension": comb(n + m - d, n),
                  # the top Plücker coordinate vanishes past the Gotzmann number d
                  "all_vanished": True if m > d else None}
        for _ in range(repeats.get((n, d, m), 4)):
            argv = ("degeneracy", "--kind", "hypersurface", "--n", str(n),
                    "--d", str(d), "--m", str(m), "--samples", "3", "--seed", _seed(rng))
            out.append(Request(argv, f"degeneracy hypersurface P^{n} d={d}", expect))
    for n, m, counts, times in ((2, 3, (4, 6, 8), 3), (2, 4, (4, 6, 8), 3),
                                (3, 3, (4, 6, 8), 4), (3, 4, (8,), 1)):
        for count in counts:
            expect = {"subspace_dimension": comb(n + m, n) - count, "all_vanished": None}
            for _ in range(times):
                argv = ("degeneracy", "--kind", "points", "--n", str(n),
                        "--count", str(count), "--m", str(m), "--samples", "3",
                        "--seed", _seed(rng))
                out.append(Request(argv, f"degeneracy points P^{n}", expect))
    return out


WORKLOADS = {
    "gin-survey": gin_survey,
    "hilbert-lex": hilbert_lex,
    "strata-lex": strata_lex,
    "pluecker-sampling": pluecker_sampling,
}


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    return requests
