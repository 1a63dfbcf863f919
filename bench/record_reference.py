"""Record the reference answers for the default seed of every workload.

Usage: python3 bench/record_reference.py

Run it only at a commit whose answers are trusted; it rewrites
bench/reference.json.  Every request must pass its self-checks first.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from worker import import_ginlab, run_request

REFERENCE_SEED = 1


def main() -> int:
    cli = import_ginlab()
    recorded = {}
    for name in workloads.WORKLOADS:
        requests = workloads.build(name, REFERENCE_SEED)
        answers = []
        for request in requests:
            _, code, stdout, error = run_request(cli.main, request.argv, 600.0)
            error = error or checks.check(request, code, stdout)
            if error:
                print(f"{name}: {request.family}: {error}", file=sys.stderr)
                return 1
            answers.append({"argv_sha": checks.argv_digest(request.argv),
                            "fields": checks.answer_fields(json.loads(stdout))})
        recorded[name] = {"seed": REFERENCE_SEED, "answers": answers}
        print(f"{name}: {len(answers)} answers")
    checks.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
