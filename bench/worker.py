"""One benchmark worker: a fresh process that runs one pass over a request list.

The worker imports ginlab from the checkout's ``src``, builds the request
list, prints ``ready`` and then issues the requests one after another (closed
loop, one client) by calling ``ginlab.cli.main(argv)`` in-process with stdout
and stderr captured.  Each request runs under an interval timer, so a hung or
runaway request counts as failed and the pass goes on.  The answer is checked
after the request's timed interval, and the machine-speed probe (speed.py)
runs between requests.  The last line on stdout is one JSON object with the
per-request results and the probe times.

Usage: worker.py WORKLOAD SEED DEADLINE_S [--trace SPANS_FILE] [--setup-only]
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import checks
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
REQUEST_BUDGET_S = 30.0


class RequestOverrun(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise RequestOverrun()


def import_ginlab():
    """Import ginlab from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ginlab.cli

    if src not in Path(ginlab.cli.__file__).resolve().parents:
        raise ImportError(f"ginlab was imported from {ginlab.cli.__file__}, not from {src}")
    return ginlab.cli


def run_request(main, argv, budget_s: float) -> tuple[float, int, str, str | None]:
    """(seconds, exit code, stdout, error) of one request under the budget."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = 1
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except RequestOverrun:
        error = f"over the {budget_s:.0f} s request budget"
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the pass goes on; the request counts as failed
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, code, out.getvalue(), error


def main(argv: list[str]) -> int:
    workload, seed, deadline_s = argv[0], int(argv[1]), float(argv[2])
    spans_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    t_start = time.perf_counter()

    cli = import_ginlab()
    requests = workloads.build(workload, seed)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    references = checks.load_references(workload, seed, requests)
    tracer = None
    if spans_file:
        tracer = spans.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    probes = [speed.probe() for _ in range(3)]
    probe_at = [0, 0, 0]  # requests done when each probe ran
    since_probe = 0.0
    try:
        for i, request in enumerate(requests):
            left = deadline_s - (time.perf_counter() - t_start)
            if left <= 0:
                results.append([0.0, "not started before the run deadline"])
                continue
            if tracer:
                tracer.request = i + 1
            elapsed, code, stdout, error = run_request(
                cli.main, request.argv, min(REQUEST_BUDGET_S, left))
            if error is None:
                error = checks.check(request, code, stdout,
                                     references[i] if references else None)
            results.append([elapsed, error])
            since_probe += elapsed
            if since_probe >= speed.PROBE_EVERY_S:
                probes.append(speed.probe())
                probe_at.append(i + 1)
                since_probe = 0.0
    finally:
        if tracer:
            tracer.uninstall()
    probes += [speed.probe() for _ in range(3)]
    probe_at += [len(requests)] * 3
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {
        "families": [r.family for r in requests],
        "results": results,
        "probes": probes,
        "probe_at": probe_at,
        "peak_rss_mb": peak_kb / 1024,
        "referenced": references is not None,
    }
    if tracer:
        summary["layers"] = spans.aggregate(tracer.spans)
        summary["counters"] = tracer.counters
        summary["counter_errors"] = sorted(tracer.counter_errors)
        summary["absent"] = tracer.absent
        summary["span_count"] = len(tracer.spans)
        path = Path(spans_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
