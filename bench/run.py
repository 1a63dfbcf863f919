"""Run one benchmark workload and print every metric by name with its unit.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: gin-survey, hilbert-lex, strata-lex, pluecker-sampling.

With ``--trace 0`` the run measures passes over the workload's request list,
each in a fresh worker process (cold caches, as in a new session), for about
``--seconds`` seconds and at least one pass, plus a few set-up probes.  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer numbers; tracing overhead is traced minus untraced ``wall_s``.
Request times are scaled to a reference machine speed (see speed.py).
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, TRACED, span_name
from speed import REFERENCE_PROBE_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
HARD_LIMIT_S = 165.0  # every run must end inside 180 s, whatever the program does


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return HARD_LIMIT_S - self.elapsed()


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and wait until it is ready; returns it and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = proc.communicate()
        raise BenchError(f"worker did not start:\n{err.strip()}")
    return proc, setup_s


def finish_worker(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run's hard time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    return out


def setup_probe(workload: str, seed: int, clock: Clock) -> float:
    proc, setup_s = start_worker([workload, str(seed), "0", "--setup-only"])
    finish_worker(proc, clock.left())
    return setup_s


def run_pass(workload: str, seed: int, clock: Clock, spans_file: Path | None = None):
    """One pass over the request list in a fresh worker: (setup_s, summary)."""
    args = [workload, str(seed), f"{clock.left() - 5.0:.3f}"]
    if spans_file is not None:
        args += ["--trace", str(spans_file)]
    proc, setup_s = start_worker(args)
    out = finish_worker(proc, clock.left())
    summary = json.loads(out.strip().splitlines()[-1])
    summary["times"] = scaled_times(summary)
    summary["raw_wall_s"] = sum(elapsed for elapsed, _ in summary["results"])
    summary["wall_s"] = sum(summary["times"])
    return setup_s, summary


def scaled_times(summary) -> list[float]:
    """Request times at the reference speed (see speed.py).

    Each time is scaled by the median of the six speed probes that ran
    nearest to it, three before and three after, so a slow spell of the
    machine is corrected where it happened.
    """
    probes, done = summary["probes"], summary["probe_at"]
    times = []
    for i, (elapsed, _) in enumerate(summary["results"]):
        j = bisect.bisect_left(done, i + 1)  # first probe run after request i
        times.append(elapsed * REFERENCE_PROBE_S / statistics.median(probes[max(0, j - 3):j + 3]))
    return times


def failures(passes) -> list[tuple[str, str]]:
    return [(p["families"][i], error)
            for p in passes for i, (_, error) in enumerate(p["results"]) if error]


def untraced_metrics(passes, setups) -> tuple[dict, list[str]]:
    latencies = [t for p in passes for t in p["times"] if t]
    if len(latencies) < 2:
        raise BenchError("fewer than two requests were timed")
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    beyond = sum(1 for x in latencies if x > p90)
    attempted = sum(len(p["results"]) for p in passes)
    failed = len(failures(passes))
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} worker start-ups"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                   f"median of {len(passes)} passes of {len(passes[0]['results'])} requests"),
        "latency_p50_s": (p50, "s", f"n={len(latencies)}"),
        "latency_p90_s": (p90, "s", f"n={len(latencies)}, {beyond} beyond"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB", "max over passes"),
    }
    lines = [f"  {name:<16} {value:>12.6f} {unit:<5} {note}"
             for name, (value, unit, note) in metrics.items()]
    lines.append(f"  {'failed_share':<16} {failed / attempted:>12.6f} {'ratio':<5} "
                 f"{failed} of {attempted} requests")
    lines.append("  times above are at the reference speed; measured wall_s per pass "
                 + ", ".join(f"{p['raw_wall_s']:.3f} s (x{p['wall_s'] / p['raw_wall_s']:.3f})"
                             for p in passes))
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}, lines


def traced_metrics(plain, traced) -> tuple[dict, list[str]]:
    layers = traced["layers"]
    metrics: dict[str, tuple[float, str]] = {}
    rows = []
    for module, path in TRACED:
        name = span_name(module, path)
        entry = layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.total_s"] = (entry["total_s"], "s")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        rows.append((entry["self_s"], name, entry))
    for metric in COUNTERS:
        unit = "bits" if metric.endswith("_bits_max") else "count"
        metrics[metric] = (traced["counters"][metric], unit)
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")

    lines = [f"  {'layer':<46} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for self_s, name, entry in sorted(rows, reverse=True):
        if name in traced["absent"]:
            lines.append(f"  {name:<46} absent")
            continue
        share = 100 * self_s / traced["raw_wall_s"] if traced["raw_wall_s"] else 0.0
        lines.append(f"  {name:<46} {entry['calls']:>9} {entry['total_s']:>10.4f} "
                     f"{self_s:>10.4f} {share:>6.1f}")
    for metric in COUNTERS:
        note = " (unreadable: signature changed)" if metric in traced["counter_errors"] else ""
        lines.append(f"  {metric:<46} {metrics[metric][0]:>9}{note}")
    lines.append(f"  untraced wall_s {plain['wall_s']:.4f} s, traced wall_s "
                 f"{traced['wall_s']:.4f} s, tracing overhead {overhead:.4f} s "
                 f"over {traced['span_count']} spans")
    return metrics, lines


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    clock = Clock()
    if trace:
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        _, plain = run_pass(workload, seed, clock)
        _, traced = run_pass(workload, seed, clock, spans_file)
        passes = [plain, traced]
        metrics, lines = traced_metrics(plain, traced)
        lines.append(f"  spans written to {spans_file.relative_to(ROOT)}")
    else:
        setups = [setup_probe(workload, seed, clock) for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            started = clock.elapsed()
            setup_s, summary = run_pass(workload, seed, clock)
            setups.append(setup_s)
            passes.append(summary)
            now = clock.elapsed()
            if now + (now - started) > seconds:  # the next pass would not fit
                break
        metrics, lines = untraced_metrics(passes, setups)
    failed = failures(passes)
    attempted = sum(len(p["results"]) for p in passes)
    referenced = "reference answers" if passes[0]["referenced"] else "self-checks only"
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"requests {attempted}  checked against {referenced}")
    print("\n".join(lines))
    for family, error in failed[:10]:
        print(f"  FAILED {family}: {error}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
