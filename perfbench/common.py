"""Jobs and the closed-loop round runner shared by every workload."""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def clock():
    """CPU seconds used by this process and the child processes it has
    reaped.  Jobs run in-process on one thread without I/O, so on an idle
    machine this is their wall time; on a shared virtual machine it leaves
    out the time the hypervisor gives the CPU to other guests (steal),
    which varies from run to run."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Job:
    """One request to gbbkit: ``run(**inputs)`` computes the answer and
    ``check(answer, expect)`` returns the oracle's mismatches (empty when
    the answer is right).  ``row`` names the baseline row the job
    reproduces in the traced run."""

    name: str
    run: Callable
    inputs: dict
    check: Callable
    expect: dict = field(default_factory=dict)
    row: str = ""


@dataclass
class RoundsResult:
    latencies: list          # per job: its latency in each round, seconds
    rounds: int
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    peak_rss_kib: int = 0    # over set-up and the first round


def run_rounds(jobs, seconds, workload, seed, tracer=None):
    """Run the whole job list in its seeded order, one job at a time,
    round after round.  A new round starts only while it is expected to
    end within ``seconds`` of wall time; at least one round runs.  Only
    ``job.run`` is timed, with ``clock``; oracle checks and a garbage
    collection run between jobs, outside the timed region.
    Every failure is logged to stderr with the workload, seed and the
    job's inputs."""
    result = RoundsResult([[] for _ in jobs], 0)
    start = time.perf_counter()
    while True:
        for index, job in enumerate(jobs):
            # every job starts from the same collector state, whatever ran
            # before it in the seeded order
            gc.collect()
            if tracer is not None:
                tracer.begin_job(result.rounds, index, job.row)
            error = None
            t0 = clock()
            try:
                answer = job.run(**job.inputs)
            except Exception as exc:  # an unexpected raise is a failed job
                error = exc
            t1 = clock()
            if tracer is not None:
                tracer.end_job(t0, t1)
            latency = t1 - t0
            result.latencies[index].append(latency)
            result.attempted += 1
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                problems = job.check(answer, job.expect)
            if problems:
                result.failed += 1
                log_failure(workload, seed, job, problems)
        if not result.rounds:
            result.peak_rss_kib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        result.rounds += 1
        result.wall_s = time.perf_counter() - start
        if result.wall_s * (1 + 1 / result.rounds) > seconds:
            return result


def check_fields(answer, expect):
    """Oracle for answers that are dicts: every expected field matches."""
    return [f"{key} = {answer[key]!r}, expected {want!r}"
            for key, want in expect.items() if answer[key] != want]


def log_failure(workload, seed, job, problems):
    record = {"workload": workload, "seed": seed, "job": job.name,
              "inputs": job.inputs, "expect": job.expect,
              "problems": problems}
    print("FAILED " + json.dumps(record, default=repr), file=sys.stderr)
