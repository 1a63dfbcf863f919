"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each listed ginlab function by a timing wrapper at
every binding site: every ``ginlab.*`` module global that is the same function
object (modules do ``from .x import f``) and, for methods, the class
attribute.  Each call records a span (id, parent id, request id, name, start,
end) in memory; size counters are read from arguments and return values after
the span has ended.  ``uninstall`` puts every original back.  A listed name
that no longer exists is reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function, by layer.
TRACED = (
    ("cli", "main"),
    ("parsing", "parse_generators"),
    ("orders", "RingContext.monomials"),
    ("poly", "apply_change"),
    ("groebner", "buchberger"),
    ("groebner", "initial_ideal"),
    ("groebner", "graded_basis_matrix"),
    ("monideal", "saturate"),
    ("monideal", "minimalize"),
    ("monideal", "intersect"),
    ("monideal", "MonomialIdeal.graded_monomials"),
    ("hilbert", "hilbert_polynomial"),
    ("hilbert", "hilbert_polynomial_of_monomial_ideal"),
    ("hilbert", "hilbert_function"),
    ("hilbert", "macaulay_rep"),
    ("hilbert", "lex_segment_ideal"),
    ("hilbert", "revlex_lemma_check"),
    ("linalg", "rref"),
    ("linalg", "det"),
    ("linalg", "kernel"),
    ("grassmann", "hilbert_point"),
    ("grassmann", "pluecker_coordinate"),
    ("gin", "generic_initial_ideal"),
    ("gin", "random_linear_change"),
    ("gin", "is_borel_fixed"),
    ("gin", "index_at_degree"),
    ("families", "points_hilbert_point"),
)


def span_name(module: str, path: str) -> str:
    """Metric prefix of a traced function: module plus its last name."""
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _coeff_bits(basis) -> int:
    bits = 0
    for g in basis:
        for c in g.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _matrix_cells(args, kwargs, result) -> int:
    ctx, ideal, m = _arg(args, kwargs, 0, "ctx"), _arg(args, kwargs, 1, "I"), _arg(args, kwargs, 2, "m")
    rows = sum(ctx.dim(m - g.degree()) for g in ideal.generators if g.degree() <= m)
    return rows * ctx.dim(m)


def _rref_cells(args, kwargs, result) -> int:
    rows = _arg(args, kwargs, 0, "rows")
    return len(rows) * _arg(args, kwargs, 1, "ncols")


# Size counters: metric name -> (span name, how to combine, reader).
COUNTERS = {
    "orders.monomials.count": ("orders.monomials", "sum", lambda a, k, r: len(r)),
    "poly.apply_change.terms_out": ("poly.apply_change", "sum", lambda a, k, r: len(r.terms)),
    "groebner.buchberger.basis_size": ("groebner.buchberger", "sum", lambda a, k, r: len(r)),
    "groebner.buchberger.coeff_bits_max": ("groebner.buchberger", "max", lambda a, k, r: _coeff_bits(r)),
    "groebner.graded_basis_matrix.cells": ("groebner.graded_basis_matrix", "sum", _matrix_cells),
    "monideal.saturate.gens_in": (
        "monideal.saturate", "sum", lambda a, k, r: len(_arg(a, k, 0, "M").min_gens)),
    "monideal.saturate.gens_out": ("monideal.saturate", "sum", lambda a, k, r: len(r.min_gens)),
    "monideal.graded_monomials.count": ("monideal.graded_monomials", "sum", lambda a, k, r: len(r)),
    "linalg.rref.cells": ("linalg.rref", "sum", _rref_cells),
    "linalg.det.order_sum": ("linalg.det", "sum", lambda a, k, r: len(_arg(a, k, 0, "rows"))),
    "gin.generic_initial_ideal.index_size": (
        "gin.generic_initial_ideal", "sum", lambda a, k, r: len(r.index.monomials)),
}


class Tracer:
    """Wraps the TRACED functions; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.counter_errors: set[str] = set()
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        readers = [(metric, how, read) for metric, (span, how, read) in COUNTERS.items()
                   if span == name]
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack) + 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.request, name, start, end))
            for metric, how, read in readers:
                try:
                    value = read(args, kwargs, result)
                except Exception:  # a changed signature must not fail the request
                    self.counter_errors.add(metric)
                    continue
                counters[metric] = max(counters[metric], value) if how == "max" else counters[metric] + value
            return result

        wrapper.__wrapped__ = original
        wrapper.bench_span = name
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ginlab" or key.startswith("ginlab.")]
        for module_name, path in TRACED:
            name = span_name(module_name, path)
            home = sys.modules.get(f"ginlab.{module_name}")
            owner, attr = home, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(home, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            sites = [(owner, attr)] if owner is not home else []
            sites += [(m, key) for m in modules for key, value in vars(m).items()
                      if value is original]
            for site, key in sites:
                self._patched.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            site, key, original = self._patched.pop()
            setattr(site, key, original)


def aggregate(spans) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name.

    Self time is a span's duration minus the part of its interval covered by
    its child spans.  Total time counts only the outermost span of a name, so
    a recursive call is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append((s[4], s[5]))
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, parent, _, name, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[span_id]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[3] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["total_s"] += end - start
    return dict(stats)
