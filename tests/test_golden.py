"""Byte-for-byte CLI reports of fixed requests.

`golden_reports.json` holds, for each request, its argv and the stdout that
`ginlab` printed for it when the file was recorded.  A report may change only
with a deliberate `schema` bump; re-record the file then, by running each argv
through `ginlab.cli.main` and storing its stdout.
"""

import json
from pathlib import Path

import pytest

from ginlab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_report_is_byte_identical(capsys, case):
    assert main(list(case["argv"])) == 0
    assert capsys.readouterr().out == case["stdout"]
