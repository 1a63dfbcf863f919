"""Tests of the benchmark itself.  Run: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys

import pytest

import checks
import spans
import workloads
from worker import import_ginlab, run_request

cli = import_ginlab()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert first != workloads.build(workload, 8)
    assert len(first) >= 100


def test_self_time_on_nested_spans():
    # (id, parent, request, name, start, end)
    tree = [
        (3, 2, 1, "inner", 2.0, 3.0),
        (2, 1, 1, "a", 1.0, 4.0),
        (4, 1, 1, "b", 5.0, 7.0),
        (6, 5, 1, "a", 8.5, 9.0),  # recursive: counted in calls, not in total_s
        (5, 1, 1, "a", 8.0, 9.5),
        (1, 0, 1, "root", 0.0, 10.0),
        (8, 7, 2, "b", 11.0, 13.0),  # overlapping children are covered once
        (9, 7, 2, "b", 12.0, 14.0),
        (7, 0, 2, "root", 10.0, 15.0),
    ]
    stats = spans.aggregate(tree)
    assert stats["root"] == {"calls": 2, "total_s": 15.0, "self_s": 3.5 + 2.0}
    assert stats["a"] == {"calls": 3, "total_s": 4.5, "self_s": 2.0 + 1.0 + 0.5}
    assert stats["b"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    assert stats["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def _wrappers_left() -> list[str]:
    left = []
    for key, module in list(sys.modules.items()):
        if key != "ginlab" and not key.startswith("ginlab."):
            continue
        for name, value in vars(module).items():
            holders = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            left += [f"{key}.{name}" for obj in holders if hasattr(obj, "bench_span")]
    return left


def test_wrappers_removed_after_traced_run():
    import ginlab.gin
    import ginlab.monideal
    import ginlab.orders

    original_monomials = vars(ginlab.orders.RingContext)["monomials"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _wrappers_left()
        _, code, _, error = run_request(cli.main, ["gin", "--n", "2", "--ideal", "x0*x2 - x1^2"], 60)
    finally:
        tracer.uninstall()
    assert (code, error) == (0, None)
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "monideal.saturate", "orders.monomials", "gin.generic_initial_ideal"} <= names
    assert tracer.counters["orders.monomials.count"] > 0
    assert tracer.absent == []
    assert _wrappers_left() == []
    assert ginlab.gin.saturate is ginlab.monideal.saturate
    assert vars(ginlab.orders.RingContext)["monomials"] is original_monomials


def test_missing_function_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", (("monideal", "no_such_function"), ("nowhere", "f")))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["monideal.no_such_function", "nowhere.f"]


def test_checker_flags_one_altered_field():
    requests = workloads.build("gin-survey", 1)
    references = checks.load_references("gin-survey", 1, requests)
    i = next(k for k, r in enumerate(requests) if r.family == "gin ci(2) P^2 grevlex")
    _, code, stdout, error = run_request(cli.main, requests[i].argv, 60)
    assert error is None
    assert checks.check(requests[i], code, stdout, references[i]) is None

    report = json.loads(stdout)
    for field, value in (("gin", ["x0^3"]), ("witness", [["1"]]), ("certification_degree", 99)):
        altered = dict(report, **{field: value})
        assert checks.check(requests[i], 0, json.dumps(altered), references[i]) is not None
    # Without references the self-checks still catch a wrong Hilbert polynomial.
    altered = dict(report, hilbert_polynomial="2*m + 2")
    assert checks.check(requests[i], 0, json.dumps(altered)) is not None
    assert checks.check(requests[i], 3, stdout) == "exit code 3"


@pytest.mark.parametrize("text, coeffs", [
    ("2*m + 1", [1, 2]), ("6*m - 3", [-3, 6]), ("9", [9]),
    ("1/2*m^2 + 3/2*m + 1", [1, 1.5, 0.5]), ("-m + 3", [3, -1]),
])
def test_parse_polynomial_in_m(text, coeffs):
    assert checks.parse_polynomial_in_m(text) == coeffs


@pytest.mark.parametrize("text", ["4*m+-1", "x", "", "2*q"])
def test_parse_polynomial_in_m_rejects(text):
    with pytest.raises(ValueError):
        checks.parse_polynomial_in_m(text)


def test_times_scaled_by_nearest_probes():
    import run

    summary = {"results": [[1.0, None]] * 4, "probe_at": [0, 0, 0, 2, 4, 4, 4],
               "probes": [0.01, 0.01, 0.01, 0.02, 0.04, 0.04, 0.04]}
    ref = run.REFERENCE_PROBE_S
    # requests 0-1 sit among probes 0.01 x3 | 0.02, 0.04 x2; requests 2-3 among 0.01 x2, 0.02 | 0.04 x3
    assert run.scaled_times(summary) == [ref / 0.015] * 2 + [ref / 0.03] * 2


def test_metric_names_match_benchmark_json():
    import run

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    passes = [{"results": [[0.1, None], [0.2, None], [0.3, "wrong"]], "peak_rss_mb": 20.0,
               "times": [0.1, 0.2, 0.3], "raw_wall_s": 0.6, "wall_s": 0.6, "families": ["f"] * 3}]
    end_to_end, _ = run.untraced_metrics(passes, [0.1, 0.2])
    assert list(end_to_end) == [m["name"] for m in declared["end_to_end"]]
    assert {name: unit for name, (_, unit) in end_to_end.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}

    traced = {"layers": {}, "counters": dict.fromkeys(spans.COUNTERS, 0), "counter_errors": [],
              "absent": [], "span_count": 0, "wall_s": 1.0, "raw_wall_s": 1.0}
    per_layer, _ = run.traced_metrics({"wall_s": 0.9}, traced)
    assert {name: unit for name, (_, unit) in per_layer.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}
