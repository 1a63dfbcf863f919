"""Command-line driver: gin, strata, revlex-lemma, degeneracy, hilb-info.

Every command prints one JSON report (schema 1) to standard output and, with
--out, writes the identical bytes to a file.  Exit codes: 0 success, 2 for
parse or validation problems and for unreadable input or unwritable output
files, 3 when an internal property check fails, 4 when the computation runs
out of resources (`MemoryError`, `RecursionError`) or raises another
`RuntimeError`.  Every error exit prints one `error:` line on stderr.

`revlex-lemma` counts S_l times each segment instead of listing it, and
`degeneracy` reads each sample's top Plücker coordinate without a canonical
matrix: off one monomial, lm(f) * x_n^(m-d), for a hypersurface f, with lm(f)
the monomial of the form's first nonzero coefficient drawn, and off one
count x count minor of the evaluation matrix for a set of points, for which
only the minor's columns are evaluated.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache
from math import comb, inf
from operator import itemgetter
from pathlib import Path

from . import linalg
from .families import derive_seed, evaluations, random_ideal, random_lead, random_points
from .gin import certified_initial_ideal, generic_initial_ideal, index_at_degree, is_borel_fixed
from .grassmann import names_and_rank
from .groebner import Ideal
from .hilbert import (
    HilbertPolynomial,
    NotAdmissible,
    _lex_ideal,
    binomial_poly,
    gotzmann_number,
    macaulay_rep,
    parse_hilbert_polynomial,
    revlex_lemma_check,
)
from .monideal import MonomialIdeal
from .orders import GrevLex, Lex, MonomialOrder, RingContext, WeightOrder, mul
from .parsing import ParseError, monomial_str, parse_generators, polynomial_str

SCHEMA = 1

PARSE_ERROR = 2
PROPERTY_FAILURE = 3
RESOURCE_FAILURE = 4


class CliError(Exception):
    """Validation problem reported to the user with exit code 2."""


def parse_order(text: str, nvars: int) -> MonomialOrder:
    if text == "lex":
        return Lex()
    if text == "grevlex":
        return GrevLex()
    if text.startswith("weight:"):
        try:
            weights = tuple(int(w) for w in text[len("weight:"):].split(","))
        except ValueError:
            raise CliError(f"cannot parse weight vector in {text!r}")
        if len(weights) != nvars:
            raise CliError(f"weight vector needs {nvars} entries, got {len(weights)}")
        return WeightOrder(weights)
    raise CliError(f"unknown order {text!r}; use lex, grevlex or weight:<w0,..,wn>")


def _content_lines(path: str) -> list[str]:
    """The lines of a text file with `#` comments and surrounding blanks stripped."""
    return [line.split("#", 1)[0].strip() for line in Path(path).read_text().splitlines()]


def _ideal_from_args(args, nvars: int) -> Ideal:
    if args.ideal and args.file:
        raise CliError("give either --ideal or --file, not both")
    if args.ideal:
        gens = parse_generators(args.ideal, nvars)
    elif args.file:
        gens = [g for line in _content_lines(args.file) if line
                for g in parse_generators(line, nvars)]
    else:
        raise CliError("an ideal is required: use --ideal or --file")
    if not gens:
        raise CliError("the ideal has no nonzero generators")
    I = Ideal(gens)
    if not I.homogeneous:
        raise CliError("generators must be homogeneous")
    return I


def _monomial_ideal_strings(ctx: RingContext, M: MonomialIdeal) -> list[str]:
    return [monomial_str(u) for u in M.gens_sorted(ctx)]


def run_gin(ctx: RingContext, I: Ideal, trials: int, seed: int, bound: int):
    result = generic_initial_ideal(ctx, I, trials=trials, seed=seed, bound=bound)
    borel = is_borel_fixed(ctx, result.gin)
    report = {
        "schema": SCHEMA,
        "command": "gin",
        "n": ctx.n,
        "order": str(ctx.order),
        "seed": seed,
        "trials": trials,
        "ideal": [polynomial_str(g, ctx) for g in I.generators],
        "gin": _monomial_ideal_strings(ctx, result.gin),
        "index": result.index.as_strings(ctx),
        "certification_degree": result.certification_degree,
        "stable": result.stable,
        "borel_fixed": borel,
        "hilbert_polynomial": str(result.hilbert_polynomial),
        "gotzmann": result.gotzmann,
        "witness": [[str(x) for x in row] for row in result.witness.matrix],
    }
    return report, (0 if borel else PROPERTY_FAILURE)


def run_strata(ctx: RingContext, members, mode: str, seed: int, description: str,
               trials: int = 5, bound: int = 100):
    if not members:
        raise CliError("the family is empty")
    if mode not in ("byGin", "byInitialIdeal"):
        raise CliError(f"unknown stratification mode {mode!r}")
    strata: dict = {}
    for member_id, I in enumerate(members):
        if mode == "byGin":
            result = generic_initial_ideal(
                ctx, I, trials=trials, seed=derive_seed(seed, member_id), bound=bound
            )
            ideal, m = result.gin, result.certification_degree
        else:
            ideal, m = certified_initial_ideal(ctx, I)
        if ideal.min_gens not in strata:
            # in initial mode, only the member that opens a stratum builds an index
            index = result.index if mode == "byGin" else index_at_degree(ctx, ideal, m)
            strata[ideal.min_gens] = {"index": index, "degree": m, "ideal": ideal, "members": []}
        strata[ideal.min_gens]["members"].append(member_id)

    for entry in strata.values():
        # higher degree first, then the higher index; the sentinel past every
        # pack puts an index after its extensions, as a longer index is higher
        entry["names"], rank = names_and_rank(ctx, entry["index"])
        entry["rank"] = (-entry["degree"], rank + (inf,))

    ordered = sorted(strata.values(), key=itemgetter("rank"))
    total = len(members)
    borel_ok = True
    strata_json = []
    for entry in ordered:
        gens = _monomial_ideal_strings(ctx, entry["ideal"])
        if mode == "byGin" and not is_borel_fixed(ctx, entry["ideal"]):
            borel_ok = False
        strata_json.append(
            {
                "index": entry["names"],
                "gin_generators": gens,
                "member_ids": sorted(entry["members"]),
                "count": len(entry["members"]),
            }
        )
    dominant = ordered[0]
    report = {
        "schema": SCHEMA,
        "command": "strata",
        "n": ctx.n,
        "order": str(ctx.order),
        "seed": seed,
        "mode": mode,
        "family": description,
        "family_size": total,
        "strata": strata_json,
        "dominant_index": strata_json[0]["index"],
        "dominant_share": str(Fraction(len(dominant["members"]), total)),
    }
    covered = sum(s["count"] for s in strata_json)
    ok = borel_ok and covered == total
    return report, (0 if ok else PROPERTY_FAILURE)


def run_revlex_lemma(n: int, m_max: int, l_max: int):
    if n > 4 or m_max > 6 or l_max > 6:
        raise CliError("enumeration guard: require n <= 4, m_max <= 6 and l_max <= 6")
    if n < 1 or m_max < 0 or l_max < 0:
        raise CliError("n must be >= 1 and the bounds nonnegative")
    ctx = RingContext(n, GrevLex())
    grid = [(m, count, l) for m in range(1, m_max + 1) for count in range(ctx.dim(m) + 1)
            for l in range(1, l_max + 1)]
    counterexamples = [{"m": m, "count": count, "l": l} for m, count, l in grid
                       if not revlex_lemma_check(ctx, m, count, l).lemma_consistent]
    report = {
        "schema": SCHEMA,
        "command": "revlex-lemma",
        "n": n,
        "m_max": m_max,
        "l_max": l_max,
        "cases": len(grid),
        "counterexamples": counterexamples,
        "counterexample_count": len(counterexamples),
    }
    return report, (0 if not counterexamples else PROPERTY_FAILURE)


def run_degeneracy(kind: str, n: int, m: int, samples: int, seed: int,
                   d: int | None = None, count: int | None = None, bound: int = 100):
    ctx = RingContext(n, GrevLex())
    if m < 0:
        raise CliError("negative degree")
    if samples < 1:
        raise CliError("need at least one sample")
    if kind == "hypersurface":
        if d is None or d < 1:
            raise CliError("hypersurface kind needs a degree --d >= 1")
        P = binomial_poly(n, n) - binomial_poly(n - d, n)
    elif kind == "points":
        if count is None or count < 1:
            raise CliError("points kind needs --count >= 1")
        P = HilbertPolynomial.constant(count)
    else:
        raise CliError(f"unknown degeneracy kind {kind!r}")
    m0 = gotzmann_number(P)
    value = P(m)
    if value.denominator != 1:
        raise CliError(f"Hilbert polynomial is not integral at m={m}")
    dim_expected = ctx.dim(m) - int(value)
    if dim_expected < 0 or dim_expected > ctx.dim(m):
        raise CliError(f"no subspace of codimension P({m}) in degree {m}")
    applicable = bool(P) and P.degree() >= 1 and m > m0

    # p_alpha* is nonzero exactly when in(I)_m is the top segment alpha*
    if kind == "hypersurface":
        # I_m = f * S_(m-d), so in(I)_m = lm(f) * S_(m-d): dim S_(m-d) monomials, the
        # smallest lm(f) * x_n^(m-d), which is the last of alpha* exactly when they are alpha*
        dim, tail = ctx.dim(m - d), (0,) * n + (m - d,)
        alpha_star = ctx.top_segment(m, dim_expected)
    vanished = 0
    witness = None
    for s in range(samples):
        rng = random.Random(derive_seed(seed, s))
        if kind == "hypersurface":
            lead = random_lead(ctx, d, rng, bound)  # drawn even when dim = 0: bound < 1 raises
            nonzero = not dim or mul(lead, tail) == alpha_star[-1]
        else:
            # I_m = ker E for the evaluation matrix E; by Plücker duality
            # p_alpha*(ker E) = +-det E[:, last count columns], and a nonzero
            # minor already proves rank E = count, so only a zero one needs E and its rank
            points, cols = random_points(ctx, count, rng, bound), ctx.monomials(m)
            nonzero = linalg.det(evaluations(points, cols[dim_expected:])) != 0
            dim = dim_expected if nonzero else (
                len(cols) - linalg.rank(evaluations(points, cols), len(cols)))
        if dim != dim_expected:
            raise CliError(f"sample {s} has unexpected dimension {dim} != {dim_expected}")
        if not nonzero:
            vanished += 1
        elif witness is None:
            witness = s
    all_vanished = vanished == samples
    report = {
        "schema": SCHEMA,
        "command": "degeneracy",
        "kind": kind,
        "n": n,
        "m": m,
        "seed": seed,
        "samples": samples,
        "hilbert_polynomial": str(P),
        "gotzmann": m0,
        "theorem_applicable": applicable,
        "subspace_dimension": dim_expected,
        "alpha_star": list(ctx.names(m)[:dim_expected]),
        "vanished_count": vanished,
        "all_vanished": all_vanished,
        "witness": witness,
    }
    if kind == "hypersurface":
        report["d"] = d
        # at m = d + 1 the first monomials free of x_n, the top C(m+n-1, n-1) in grevlex, are
        # alpha*; their minor on the rows x_i * f is 0, as the row x_n * f vanishes on them
        if m == d + 1 and comb(m + n - 1, n - 1) >= dim_expected:
            report["explicit_index"] = report["alpha_star"]
            report["explicit_all_vanished"] = True
    if kind == "points":
        report["count"] = count
    if not applicable:
        report["note"] = (
            "theorem hypothesis excluded (constant Hilbert polynomial or m <= Gotzmann); "
            "observed vanishing pattern recorded without a verdict"
        )
    return report, 0


def run_hilb_info(ctx: RingContext, P: HilbertPolynomial, text: str):
    try:
        rep = macaulay_rep(P)
    except NotAdmissible:
        rep = None
    report = {
        "schema": SCHEMA,
        "command": "hilb-info",
        "n": ctx.n,
        "input": text,
        "polynomial": str(P),
        "admissible": rep is not None,
    }
    if rep is None:
        return report, 0
    report["gotzmann"] = rep.gotzmann
    report["macaulay_rep"] = str(rep)
    report["macaulay_exponents"] = list(rep.a)
    # _lex_ideal raises ValueError unless its own round trip reproduces P
    report["lex_ideal"] = _monomial_ideal_strings(ctx, _lex_ideal(ctx, P, rep.a))
    report["round_trip_verified"] = True
    return report, 0


def _parse_members(ctx: RingContext, args) -> tuple[list[Ideal], str]:
    sources = [bool(args.members), bool(args.members_file), bool(args.family)]
    if sum(sources) != 1:
        raise CliError("give exactly one of --members, --members-file or --family")
    if args.members:
        blocks = [b for b in args.members.split("|") if b.strip()]
        members = [Ideal(parse_generators(b, ctx.nvars)) for b in blocks]
        description = f"inline:{len(members)}"
    elif args.members_file:
        blocks, current = [], []
        for line in _content_lines(args.members_file) + [""]:
            if line:
                current.append(line)
            elif current:
                blocks.append(current)
                current = []
        members = [
            Ideal([g for chunk in block for g in parse_generators(chunk, ctx.nvars)])
            for block in blocks
        ]
        description = f"file:{args.members_file}"
    else:
        family = args.family
        if not family.startswith("random:"):
            raise CliError("family must look like random:<d1,d2,...>")
        try:
            degrees = [int(x) for x in family[len("random:"):].split(",")]
        except ValueError:
            raise CliError(f"cannot parse degrees in {family!r}")
        if not degrees or any(d < 1 for d in degrees):
            raise CliError("family degrees must be positive")
        if args.samples < 1:
            raise CliError("need at least one family member")
        members = [
            random_ideal(ctx, degrees, random.Random(derive_seed(args.seed, 1, i)), args.bound)
            for i in range(args.samples)
        ]
        description = f"{family}:samples={args.samples}:bound={args.bound}"
    for I in members:
        if I.is_zero():
            raise CliError("a family member has no nonzero generators")
        if not I.homogeneous:
            raise CliError("family members must be homogeneous")
    return members, description


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="ginlab",
        description="Exact computations with generic initial ideals, Hilbert points and Schubert cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_order=True):
        p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
        if needs_order:
            p.add_argument("--order", default="grevlex",
                           help="lex | grevlex | weight:<w0,..,wn>")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="also write the JSON report to this path")

    p = sub.add_parser("gin", help="generic initial ideal of one ideal")
    common(p)
    p.add_argument("--ideal", help="';'-separated generators, e.g. 'x0*x2 - x1^2'")
    p.add_argument("--file", help="file with one polynomial per line, # comments")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--bound", type=int, default=100)

    p = sub.add_parser("strata", help="group a family of ideals by gin or by initial ideal")
    common(p)
    p.add_argument("--mode", default="gin", choices=["gin", "initial"])
    p.add_argument("--members", help="family members separated by '|', generators by ';'")
    p.add_argument("--members-file", help="file with blank-line separated member blocks")
    p.add_argument("--family", help="random family such as random:2,3")
    p.add_argument("--samples", type=int, default=20, help="size of a random family")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--bound", type=int, default=100)

    p = sub.add_parser("revlex-lemma", help="exhaustive segment/codimension check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("degeneracy", help="top Plücker coordinate on sampled families")
    common(p, needs_order=False)
    p.add_argument("--kind", required=True, choices=["hypersurface", "points"])
    p.add_argument("--d", type=int, help="hypersurface degree")
    p.add_argument("--count", type=int, help="number of points")
    p.add_argument("--m", type=int, required=True, help="embedding degree")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--bound", type=int, default=100)

    p = sub.add_parser("hilb-info", help="admissibility and lex ideal of a Hilbert polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="e.g. '2*m + 1' or 'C(m+2,2) - C(m,2)'")
    p.add_argument("--out")

    return parser


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gin":
            ctx = RingContext(args.n, parse_order(args.order, args.n + 1))
            I = _ideal_from_args(args, ctx.nvars)
            report, code = run_gin(ctx, I, args.trials, args.seed, args.bound)
        elif args.command == "strata":
            ctx = RingContext(args.n, parse_order(args.order, args.n + 1))
            members, description = _parse_members(ctx, args)
            mode = "byGin" if args.mode == "gin" else "byInitialIdeal"
            report, code = run_strata(
                ctx, members, mode, args.seed, description,
                trials=args.trials, bound=args.bound,
            )
        elif args.command == "revlex-lemma":
            report, code = run_revlex_lemma(args.n, args.m_max, args.l_max)
        elif args.command == "degeneracy":
            report, code = run_degeneracy(
                args.kind, args.n, args.m, args.samples, args.seed,
                d=args.d, count=args.count, bound=args.bound,
            )
        elif args.command == "hilb-info":
            ctx = RingContext(args.n, GrevLex())
            P = parse_hilbert_polynomial(args.p)
            report, code = run_hilb_info(ctx, P, args.p)
        else:  # pragma: no cover - argparse enforces the choices
            raise CliError(f"unknown command {args.command!r}")
        _emit(report, args.out)
    except (CliError, ParseError, NotAdmissible, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (RuntimeError, MemoryError) as exc:
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: {detail}", file=sys.stderr)
        return RESOURCE_FAILURE
    return code


def entry() -> None:  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
