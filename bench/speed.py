"""Machine-speed probe.

The machine this benchmark was tuned on changes speed by 10-40% over minutes
(other tenants share it), which moves every timing of a run together.  A
worker therefore runs a fixed piece of exact-arithmetic work, independent of
ginlab, before its pass, after about every half second of requests, and after
the pass.  Timings are scaled by ``REFERENCE_PROBE_S / median probe time``,
i.e. reported at the speed at which one probe takes REFERENCE_PROBE_S.  The
probe never runs inside a request's timed interval.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median probe time on the machine the bounds in BENCHMARK.json were set on.
REFERENCE_PROBE_S = 0.020
PROBE_EVERY_S = 0.5


def _reference_work() -> list:
    n = 9
    rows = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5) for j in range(n)]
            for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    seen: dict[tuple, int] = {}
    for a in range(40):
        for b in range(40):
            key = (a % 9, b % 7, (a * b) % 11)
            seen[key] = seen.get(key, 0) + a * b
    return sorted(seen.items())


def probe() -> float:
    """Seconds taken by the fixed reference work."""
    start = time.perf_counter()
    for _ in range(6):
        _reference_work()
    return time.perf_counter() - start
