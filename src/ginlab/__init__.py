"""Exact-arithmetic toolkit for generic initial ideals and Hilbert points."""

from .orders import (
    GrevLex,
    Lex,
    Monomial,
    MonomialOrder,
    RingContext,
    WeightOrder,
)
from .poly import LinearChange, Polynomial, apply_change
from .parsing import ParseError, parse_generators, parse_polynomial, polynomial_str
from .monideal import MonomialIdeal, intersect, saturate
from .groebner import Ideal, buchberger, initial_ideal
from .hilbert import (
    HilbertPolynomial,
    MacaulayRep,
    NotAdmissible,
    binomial_poly,
    gotzmann_number,
    hilbert_function,
    hilbert_polynomial,
    lex_segment_ideal,
    macaulay_rep,
    parse_hilbert_polynomial,
    revlex_lemma_check,
)
from .grassmann import (
    SchubertIndex,
    SubspaceBasis,
    hilbert_point,
    pluecker_coordinate,
)
from .gin import (
    GinResult,
    generic_initial_ideal,
    is_borel_fixed,
    random_linear_change,
    secondary_gin,
)

__all__ = [
    "GrevLex",
    "Lex",
    "Monomial",
    "MonomialOrder",
    "RingContext",
    "WeightOrder",
    "LinearChange",
    "Polynomial",
    "apply_change",
    "ParseError",
    "parse_generators",
    "parse_polynomial",
    "polynomial_str",
    "MonomialIdeal",
    "intersect",
    "saturate",
    "Ideal",
    "buchberger",
    "initial_ideal",
    "HilbertPolynomial",
    "MacaulayRep",
    "NotAdmissible",
    "binomial_poly",
    "gotzmann_number",
    "hilbert_function",
    "hilbert_polynomial",
    "lex_segment_ideal",
    "macaulay_rep",
    "parse_hilbert_polynomial",
    "revlex_lemma_check",
    "SchubertIndex",
    "SubspaceBasis",
    "hilbert_point",
    "pluecker_coordinate",
    "GinResult",
    "generic_initial_ideal",
    "is_borel_fixed",
    "random_linear_change",
    "secondary_gin",
]
