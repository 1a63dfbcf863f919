"""Correctness checks for one CLI report.

Every report must exit 0 and satisfy its own self-check fields and the
closed-form facts its request carries.  For the seed the reference answers
were recorded at, the mathematical fields must also equal the recorded ones.
Whole reports are never compared byte for byte, so that a schema change to
bookkeeping fields (such as replacing ``index`` by a digest) is not a wrong
answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Fields compared with the recorded answers, per command.
REFERENCE_FIELDS = {
    "gin": ("gin", "stable", "borel_fixed", "hilbert_polynomial", "gotzmann",
            "certification_degree", "witness"),
    "hilb-info": ("admissible", "gotzmann", "macaulay_rep", "lex_ideal", "round_trip_verified"),
    "degeneracy": ("subspace_dimension", "alpha_star", "vanished_count", "all_vanished", "witness"),
    "revlex-lemma": ("cases", "counterexample_count"),
}


def argv_digest(argv) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def answer_fields(report: dict) -> dict:
    """The mathematical fields of a report, the part compared with references."""
    command = report.get("command")
    if command == "strata":
        return {
            "strata": [
                {"gin_generators": s.get("gin_generators"), "member_ids": s.get("member_ids")}
                for s in report.get("strata", [])
            ],
            "dominant_share": report.get("dominant_share"),
        }
    return {k: report.get(k) for k in REFERENCE_FIELDS.get(command, ())}


def load_references(workload: str, seed: int, requests) -> list[dict] | None:
    """Recorded answers for (workload, seed), or None when none were recorded.

    Raises ValueError when the recorded request list differs from the
    generated one, which means the generator changed without re-recording.
    """
    recorded = json.loads(REFERENCE_PATH.read_text()).get(workload)
    if recorded is None or recorded["seed"] != seed:
        return None
    entries = recorded["answers"]
    if [e["argv_sha"] for e in entries] != [argv_digest(r.argv) for r in requests]:
        raise ValueError(f"reference answers for {workload} were recorded for another request list")
    return [e["fields"] for e in entries]


def parse_polynomial_in_m(text: str) -> list[Fraction]:
    """Coefficients (constant first) of a Hilbert polynomial such as '6*m - 3'."""
    coeffs: dict[int, Fraction] = {}
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial")
    pos = 0
    for match in re.finditer(r"([+-]?)([^+-]+)", compact):
        if match.start() != pos:
            raise ValueError(f"cannot parse {text!r}")
        pos = match.end()
        sign = -1 if match.group(1) == "-" else 1
        body = match.group(2)
        if "m" in body:
            coef, _, var = body.rpartition("*")
            if var != "m" and not var.startswith("m^"):
                raise ValueError(f"cannot parse {text!r}")
            power = 1 if var == "m" else int(var[2:])
            value = Fraction(coef) if coef else Fraction(1)
        else:
            power, value = 0, Fraction(body)
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * value
    if pos != len(compact):
        raise ValueError(f"cannot parse {text!r}")
    out = [coeffs.get(p, Fraction(0)) for p in range(max(coeffs) + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _self_check(request, report: dict) -> str | None:
    command = request.argv[0]
    expect = request.expect
    if report.get("command") != command:
        return f"report is for command {report.get('command')!r}"
    if command == "gin":
        if report.get("borel_fixed") is not True:
            return "gin is not Borel fixed"
        try:
            poly = parse_polynomial_in_m(report["hilbert_polynomial"])
        except (KeyError, ValueError, ZeroDivisionError):
            return "unreadable hilbert_polynomial"
        if poly != expect["hilbert_polynomial"]:
            return f"hilbert_polynomial {report['hilbert_polynomial']!r} is wrong for the family"
    elif command == "strata":
        ids = sorted(i for s in report.get("strata", []) for i in s.get("member_ids", []))
        if report.get("family_size") != expect["family_size"] or ids != list(range(expect["family_size"])):
            return "strata do not partition the family"
    elif command == "hilb-info":
        if report.get("admissible") is not True or report.get("round_trip_verified") is not True:
            return "polynomial not admissible or lex round trip failed"
        if report.get("gotzmann") != expect["gotzmann"]:
            return f"gotzmann {report.get('gotzmann')} != {expect['gotzmann']}"
    elif command == "degeneracy":
        if report.get("subspace_dimension") != expect["subspace_dimension"]:
            return "wrong subspace_dimension"
        vanished, samples = report.get("vanished_count"), report.get("samples")
        if not isinstance(vanished, int) or not 0 <= vanished <= samples:
            return "vanished_count out of range"
        if report.get("all_vanished") != (vanished == samples):
            return "all_vanished disagrees with vanished_count"
        if expect["all_vanished"] is not None and report["all_vanished"] != expect["all_vanished"]:
            return "top Plücker coordinate did not vanish past the Gotzmann number"
    elif command == "revlex-lemma":
        if report.get("counterexample_count") != 0 or not report.get("cases"):
            return "revlex lemma counterexample or no cases"
    return None


def check(request, code: int, stdout: str, reference: dict | None = None) -> str | None:
    """None when the request was answered correctly, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    if not isinstance(report, dict):
        return "stdout is not one JSON report"
    reason = _self_check(request, report)
    if reason is None and reference is not None:
        fields = answer_fields(report)
        for key, want in reference.items():
            if fields.get(key) != want:
                return f"field {key!r} differs from the reference answer"
    return reason
