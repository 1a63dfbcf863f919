"""Byte-for-byte CLI reports of fixed requests.

`golden_reports.json` holds, for each request, its argv and the stdout that
`ginlab` printed for it when the file was recorded.  A report may change only
with a deliberate `schema` bump; re-record the file then, by running each argv
through `ginlab.cli.main` and storing its stdout.

The benchmark's request lists are pinned the same way, as one sha256 per
workload and seed over every request's exit code, stdout and stderr.
"""

import hashlib
import importlib.util
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO
from pathlib import Path

import pytest

from ginlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_report_is_byte_identical(capsys, case):
    assert main(list(case["argv"])) == 0
    assert capsys.readouterr().out == case["stdout"]


@cache
def _bench_workloads():
    """`bench/workloads.py`, read in place: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# sha256 over f"{code}\0{stdout}\0{stderr}\0" of each request, in list order
BENCHMARK_DIGESTS = {
    ("gin-survey", 1): "f06a7d642af09fb10a5dcb72385bdb49fd9228edefc251a897c5044059423665",
    ("gin-survey", 2): "15e98bc6b2c2e5ec1cc4a8c86289f7098193e279393f024ad04aa188ec44ddb3",
    ("hilbert-lex", 1): "0e83e63d28dbf9eb4b3c3ea5a0402e7eab13c6d258db6f95f84945336f5167df",
    ("hilbert-lex", 2): "8e537d48b6758e5e81e01c4855eb426552b40c5251a456cacd591e440d9ad9aa",
    ("strata-lex", 1): "de9578c7085f74483e7b9c7ab04abd8c8c1870e0ac20464c324353fe6c71726c",
    ("strata-lex", 2): "a8ed33fd2157005c705fe1875879b58c36850ac2229ba8c7bd2ea872cd4283ba",
    ("pluecker-sampling", 1): "7bddd804705664977a707d12668c882e35f62cfa4a356ab606ff0f7c21564b17",
    ("pluecker-sampling", 2): "90da8a53fd30fca45666b98cd6e796f9fcbaef9560ec0e747760ec0911171645",
}


@pytest.mark.parametrize("workload, seed", sorted(BENCHMARK_DIGESTS))
def test_benchmark_reports_are_byte_identical(workload, seed):
    digest = hashlib.sha256()
    for request in _bench_workloads().build(workload, seed):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(request.argv))
        digest.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    assert digest.hexdigest() == BENCHMARK_DIGESTS[workload, seed]
