"""Self-check of the benchmark's failure accounting: a job run with a
deliberately wrong expected verdict must be counted as failed (and logged
to stderr), while the same job with its real expectation passes.

    python3 perfbench/selfcheck.py

Exits 0 when every wrong verdict was caught.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import run_rounds  # noqa: E402

# workload -> [(job name prefix, expectation key, wrong value)]
WRONG = {
    "cube": [("cube k=4 p=2 cocycle N=2", "special", True),
             ("cube k=4 p=3 cocycle N=3", "vertices", 0)],
    "certify": [("square bits=0001", "torsion_free", False),
                ("detector", "k", 0),
                ("gbb rset --n 2", "exit_code", 1),
                ("gbb verify-quotient --bits 0011", "digest", "0" * 16)],
    "words": [("reduce T=godel", "identity", False),
              ("piece check l=13 window=6", "passes", False),
              ("f_certificate(1)", "window", frozenset())],
}


def main():
    missed = 0
    for workload, cases in WRONG.items():
        jobs = importlib.import_module(workload).make_jobs(0)
        for prefix, key, value in cases:
            job = next(j for j in jobs if j.name.startswith(prefix))
            wrong = dataclasses.replace(job, expect={**job.expect, key: value})
            right_failed = run_rounds([job], 0, workload, 0).failed
            wrong_failed = run_rounds([wrong], 0, workload, 0).failed
            caught = right_failed == 0 and wrong_failed == 1
            missed += not caught
            print(f"{'caught' if caught else 'MISSED'}  {workload}: "
                  f"{job.name} with {key} = {value!r}")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
