"""Every function in `src/ginlab` is run by a command or by the README library example.

The test replays a fixed list of CLI requests in-process under
`sys.setprofile`, then runs the README library example, and asserts that
every function and method defined in `src/ginlab` was called.  Exempt are
the functions `bench/spans.py` traces, which the benchmark needs present
whether or not a command reaches them, and the few names in `EXEMPT`.
Library code that only tests call belongs in `tests/oracles.py`.
"""

import ast
import importlib
import pkgutil
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from io import StringIO
from pathlib import Path

import ginlab
from ginlab import cli

ROOT = Path(__file__).resolve().parents[1]

# name -> why it need not be reached
EXEMPT = {
    "grassmann.subspace_from_vectors": "called only by the traced families.points_hilbert_point",
    "grassmann.SubspaceBasis.d": "read only by the traced grassmann.pluecker_coordinate",
    "linalg._back_substitute": "called only by the traced linalg.rref",
    "groebner.coefficient_rows": "called only by the traced groebner.graded_basis_matrix",
    "poly.Polynomial.monomial": "called only by the traced hilbert.lex_segment_ideal",
    "poly.Polynomial.__add__": "arithmetic protocol: polynomials add by their terms",
    "poly.Polynomial.__eq__": "value protocol: polynomials compare by their terms",
    "poly.Polynomial.__hash__": "value protocol: equal polynomials hash alike",
    "poly.Polynomial.__repr__": "value protocol: a polynomial prints as its text",
    "groebner.Ideal.__repr__": "value protocol: an ideal prints as its generators",
}

MEMBERS = "x0*x2 - x1^2; x0*x1\n\n# a second member\nx0^2\n"

# The README examples, then requests for what those leave unreached: a large
# power, too many points for the box, lex and weight orders, products and
# powers of sums, a sum to the power 0, a leading minus, a parse error and the
# zero ideal.  `run_everything` adds --file, --members-file, --out and the
# console script hook.
ARGV = [
    ["gin", "--n", "2", "--ideal", "x0*x2 - x1^2", "--order", "grevlex", "--trials", "5",
     "--seed", "3"],
    ["strata", "--n", "2", "--family", "random:2", "--samples", "50", "--seed", "7"],
    ["strata", "--n", "2", "--mode", "initial", "--members", "x0*x2 - x1^2|x0^2|x1^2"],
    ["revlex-lemma", "--n", "2", "--m-max", "4", "--l-max", "2"],
    ["degeneracy", "--kind", "hypersurface", "--n", "2", "--d", "2", "--m", "3", "--samples", "50",
     "--seed", "5"],
    ["degeneracy", "--kind", "points", "--n", "2", "--count", "3", "--m", "4", "--samples", "30"],
    ["hilb-info", "--n", "2", "--p", "2*m + 1"],
    ["hilb-info", "--n", "2", "--p", "C(m+2,2) - C(m,2)"],
    ["hilb-info", "--n", "2", "--p", "m^20000"],
    ["degeneracy", "--kind", "points", "--n", "1", "--count", "5", "--m", "4", "--bound", "1",
     "--samples", "1"],
    ["gin", "--n", "2", "--ideal", "x0^2 + 3*x1*x2; x1^2 - x0*x2", "--order", "lex",
     "--trials", "2"],
    ["gin", "--n", "2", "--ideal", "x0*x2 - x1^2", "--order", "weight:1,2,3", "--trials", "2"],
    ["gin", "--n", "2", "--ideal", "(x0 + 2*x1)^2 - (x0 - x2)*x2; x1*(x0 + x1 + x2)^2",
     "--trials", "2"],
    ["gin", "--n", "2", "--ideal", "x0*x2*(x1 + x2)^0 - x1^2", "--trials", "2"],
    ["gin", "--n", "2", "--ideal", "-x0*x2 + x1^2", "--trials", "2"],
    ["gin", "--n", "2", "--ideal", "x0*", "--trials", "2"],
    ["gin", "--n", "2", "--ideal", "(x0 - x0)^2", "--trials", "2"],
]


def traced_names() -> set[str]:
    """`module.path` of every function in `bench/spans.py`'s TRACED, read from that file."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return {f"{module}.{path}" for module, path in ast.literal_eval(node.value)}
    raise AssertionError("bench/spans.py defines no TRACED")


def _attributes():
    """(module name, module, qualname, value) of every module and class attribute in ginlab."""
    for info in pkgutil.iter_modules(ginlab.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"ginlab.{info.name}")
        for name, value in vars(module).items():
            yield info.name, module, name, value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    yield info.name, module, f"{name}.{attr}", member


def _code(value):
    """The code object of the function behind an attribute, or None."""
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    elif isinstance(value, property):
        value = value.fget
    elif isinstance(value, cached_property):
        value = value.func
    value = getattr(value, "__wrapped__", value)  # lru_cache
    return getattr(value, "__code__", None)


def defined_functions() -> dict[object, str]:
    """Code object -> `module.qualname` of every function and method written in src/ginlab."""
    found = {}
    for module_name, module, qualname, value in _attributes():
        code = _code(value)
        # imported names and generated dataclass methods live in other files
        if code is not None and code.co_filename == module.__file__:
            found[code] = f"{module_name}.{qualname}"
    return found


def clear_caches() -> None:
    """Empty every lru_cache in ginlab, so that the replay calls what earlier tests cached."""
    for _, _, _, value in _attributes():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def readme_example() -> str:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "README.md has no Library example block"
    return block.group(1)


def run_everything(tmp_path) -> set:
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("x0*x2 - x1^2  # the conic\n")
    members = tmp_path / "members.txt"
    members.write_text(MEMBERS)
    argv = ARGV + [
        ["gin", "--n", "2", "--file", str(ideal), "--trials", "2"],
        ["strata", "--n", "2", "--mode", "initial", "--members-file", str(members)],
        ["hilb-info", "--n", "2", "--p", "1", "--out", str(tmp_path / "report.json")],
    ]
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    out = StringIO()
    clear_caches()
    sys.setprofile(hook)
    try:
        with redirect_stdout(out), redirect_stderr(out):
            for args in argv:
                cli.main(args)
            # the console script hook, once
            saved, sys.argv = sys.argv, ["ginlab", "hilb-info", "--n", "1", "--p", "1"]
            try:
                cli.entry()
            except SystemExit:
                pass
            finally:
                sys.argv = saved
            exec(compile(readme_example(), "README library example", "exec"), {})
    finally:
        sys.setprofile(None)
    return called


def test_every_source_function_is_reached(tmp_path):
    called = run_everything(tmp_path)
    exempt = traced_names() | set(EXEMPT)
    unreached = sorted(
        name for code, name in defined_functions().items()
        if code not in called and name not in exempt
    )
    assert not unreached, "reached by no command: " + ", ".join(unreached)


def test_exemptions_are_defined():
    defined = set(defined_functions().values())
    assert set(EXEMPT) <= defined
    assert traced_names() <= defined
